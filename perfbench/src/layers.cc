/**
 * @file
 * The traced run: per-layer metrics timed from the benchmark's own
 * files around calls into each layer's public functions, on the
 * workload's own generated stream.
 *
 * - A shadow pipeline replays the stream through the sequence of layer
 *   calls MemorySystem::writeBatch (replay-deuce) or
 *   MemorySystem::write/read (timed-mlc, serve-ble) makes, with a
 *   timestamp at every layer boundary. After its first pass its
 *   counters must carry the same signature as the real system's,
 *   which checks that it mirrors the real path.
 * - Layers the workload's path does not call (fault, persist and MLC
 *   accounting on the SLC workloads, decrypt on a write-only stream,
 *   pad planning on the one-at-a-time path) are timed on the same
 *   inputs through standalone instances. That time stays out of the
 *   traced ns/op and out of the reconcile.
 * - The real path (writeBatch, write/read, TimingSimulator::run) is
 *   timed per call, and the serving core is driven closed-loop with
 *   and without a telemetry sampler attached.
 *
 * Every *_ns layer metric is ns per op of the workload (a line write
 * on replay-deuce, an event on timed-mlc, a request on serve-ble),
 * except crypto.pad_ns, which is ns per 16-byte pad, and the sim.*
 * metrics, which are per call of the function they name.
 */

#include <array>
#include <iostream>
#include <unordered_map>
#include <unordered_set>

#include "bench.hh"
#include "common/line_kernels.hh"
#include "enc/scheme_factory.hh"
#include "fault/fault_domain.hh"
#include "obs/registry.hh"
#include "obs/telemetry.hh"
#include "pcm/write_slots.hh"
#include "persist/persist_domain.hh"
#include "serve_loop.hh"
#include "sim/memory_counters.hh"
#include "sim/timing.hh"
#include "sources.hh"
#include "wear/rotation.hh"
#include "wear/start_gap.hh"

namespace perfbench
{

namespace
{

using deuce::EventKind;
using deuce::MemorySystem;
using deuce::StoredLineState;
using deuce::WriteRequest;
using deuce::WriteResult;

enum Layer : unsigned
{
    kPad,
    kPlan,
    kEncode,
    kDecrypt,
    kLevel,
    kSlots,
    kWear,
    kMlc,
    kFault,
    kPersistW,
    kPersistR,
    kLayers
};

struct LayerInfo
{
    const char *metric;
    const char *span;
};

constexpr std::array<LayerInfo, kLayers> kInfo = {{
    {"crypto.pad_ns", "crypto.pad"},
    {"enc.plan_ns", "enc.plan"},
    {"enc.encode_ns", "enc.encode"},
    {"enc.decrypt_ns", "enc.decrypt"},
    {"wear.level_ns", "wear.level"},
    {"pcm.slots_ns", "pcm.slots"},
    {"pcm.wear_ns", "pcm.wear"},
    {"pcm.mlc_ns", "pcm.mlc"},
    {"fault.write_ns", "fault.write"},
    {"persist.write_ns", "persist.write"},
    {"persist.read_ns", "persist.read"},
}};

/** Ops per slice of every traced loop. */
constexpr uint64_t kSliceOps = 512;

/** Ops of the shadow's timed pass that get per-layer spans. */
constexpr uint64_t kSpannedOps = 2000;

/** Kernel-input pairs kept for the common.kernel_ns loop. */
constexpr std::size_t kKernelRing = 4096;

volatile uint64_t g_sink;

uint64_t
deadlineAfter(double seconds)
{
    return nowNs() + static_cast<uint64_t>(seconds * 1e9);
}

/** OtpEngine decorator: times every pad call into the wrapped engine. */
class TimedOtp final : public deuce::OtpEngine
{
  public:
    struct Totals
    {
        uint64_t ns = 0;    ///< raw, timer cost included
        uint64_t pads = 0;  ///< 16-byte blocks
        uint64_t calls = 0;
    };

    explicit TimedOtp(const deuce::OtpEngine &inner) : inner_(inner) {}

    deuce::AesBlock
    padForBlock(uint64_t line_addr, uint64_t counter,
                unsigned block) const override
    {
        uint64_t t = nowNs();
        deuce::AesBlock pad = inner_.padForBlock(line_addr, counter, block);
        note(t, 1);
        return pad;
    }

    void
    padForBlocks(uint64_t line_addr, const deuce::PadRequest *requests,
                 deuce::AesBlock *pads, unsigned n) const override
    {
        uint64_t t = nowNs();
        inner_.padForBlocks(line_addr, requests, pads, n);
        note(t, n);
    }

    void
    padForLines(const deuce::LinePadRequest *requests,
                deuce::AesBlock *pads, unsigned n) const override
    {
        uint64_t t = nowNs();
        inner_.padForLines(requests, pads, n);
        note(t, n);
    }

    CacheLine
    padForLine(uint64_t line_addr, uint64_t counter) const override
    {
        uint64_t t = nowNs();
        CacheLine pad = inner_.padForLine(line_addr, counter);
        note(t, 4);
        return pad;
    }

    const char *backendName() const override
    {
        return inner_.backendName();
    }

    Totals totals() const { return totals_; }

  private:
    void
    note(uint64_t t, unsigned n) const
    {
        totals_.ns += nowNs() - t;
        totals_.pads += n;
        ++totals_.calls;
    }

    const deuce::OtpEngine &inner_;
    mutable Totals totals_;
};

/** Per-slice layer medians of a traced loop. */
struct LayerSlices
{
    std::array<std::vector<double>, kLayers> nsPerOp;
    std::vector<double> padNsPerPad;
    std::vector<double> tracedNsPerOp;

    double med(Layer l) const
    {
        return l == kPad ? median(padNsPerPad) : median(nsPerOp[l]);
    }
};

/** Inputs of one shadow write, kept for the standalone timings. */
struct Recorded
{
    uint64_t addr = 0;
    CacheLine diff;  ///< logical data diff
    CacheLine phys;  ///< diff in physical (rotated) positions
    CacheLine image; ///< post-write image, physical positions
    StoredLineState state;
};

/**
 * The shadow pipeline. Holds its own line store, wear leveler,
 * rotation, fault and persist domains and counters, built from the
 * workload's configuration, and calls each layer of the path in the
 * order the real MemorySystem does.
 */
class Shadow
{
  public:
    Shadow(const Config &cfg, const Stream &stream,
           const deuce::EncryptionScheme &scheme, const TimedOtp &otp)
        : cfg_(cfg), initial_(stream.initial), scheme_(scheme), otp_(otp),
          counters_(cfg.pcm), tc_(timerCostNs())
    {
        vwl_ = std::make_unique<deuce::StartGap>(cfg.wl.numLines,
                                                 cfg.wl.gapWriteInterval);
        if (cfg.wl.rotation == deuce::WearLevelingConfig::Rotation::Hwl) {
            rotation_ = std::make_unique<deuce::HwlRotation>(*vwl_, false);
        } else {
            rotation_ = std::make_unique<deuce::NoRotation>();
        }
        if (cfg.fault.enabled) {
            fault_ = std::make_unique<deuce::FaultDomain>(cfg.fault);
        }
        if (cfg.persist.enabled) {
            persist_ = std::make_unique<deuce::PersistDomain>(cfg.persist);
        }
        mlcOn_ = cfg.pcm.cellTech == deuce::CellTech::MLC2;
    }

    const deuce::MemoryCounters &counters() const { return counters_; }

    /** Per-op layer spans under @p parent (-1 = none). */
    void spanOps(SpanLog *spans, int parent)
    {
        spans_ = spans;
        opParent_ = parent;
    }

    /** Keep the inputs of the next writes (until the ring is full). */
    void record() { recording_ = true; }

    /** One event through MemorySystem::write()/read()'s layer calls. */
    void
    event(const TraceEvent &ev)
    {
        openOp();
        if (ev.kind == EventKind::Writeback) {
            write(ev.lineAddr, ev.data);
        } else {
            read(ev.lineAddr);
        }
        closeOp();
    }

    /** One burst through MemorySystem::writeBatch()'s layer calls. */
    void
    burst(std::span<const WriteRequest> reqs)
    {
        openOp();
        std::size_t begin = 0;
        seen_.clear();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (!seen_.insert(reqs[i].lineAddr).second) {
                chunk(reqs.subspan(begin, i - begin));
                begin = i;
                seen_.clear();
                seen_.insert(reqs[i].lineAddr);
            }
        }
        chunk(reqs.subspan(begin));
        closeOp();
    }

    void
    beginSlice()
    {
        acc_.fill(0);
        slicePads_ = 0;
        sliceStart_ = nowNs();
    }

    void
    endSlice(uint64_t ops, LayerSlices &out)
    {
        uint64_t now = nowNs();
        double n = static_cast<double>(ops);
        for (unsigned l = 0; l < kLayers; ++l) {
            if (l != kPad) {
                out.nsPerOp[l].push_back(static_cast<double>(acc_[l]) / n);
            }
        }
        if (slicePads_ > 0) {
            out.padNsPerPad.push_back(static_cast<double>(acc_[kPad]) /
                                      static_cast<double>(slicePads_));
        }
        out.tracedNsPerOp.push_back(
            static_cast<double>(now - sliceStart_) / n);
        beginSlice();
    }

    uint64_t pads() const { return pads_; }
    uint64_t writes() const { return writes_; }
    uint64_t metaWrites() const { return metaWrites_; }
    void resetTotals() { pads_ = writes_ = metaWrites_ = 0; }

    const std::vector<Recorded> &recorded() const { return recorded_; }

  private:
    StoredLineState &
    install(uint64_t addr)
    {
        auto it = lines_.find(addr);
        if (it != lines_.end()) {
            return it->second;
        }
        StoredLineState st;
        scheme_.install(addr, initial_ ? initial_(addr) : CacheLine{}, st);
        return lines_.emplace(addr, st).first->second;
    }

    /** Close the layer segment that started at t_. */
    void
    lap(Layer l, uint64_t minus = 0)
    {
        uint64_t n = nowNs();
        uint64_t d = n - t_;
        acc_[l] += d > tc_ + minus ? d - tc_ - minus : 0;
        if (opSpan_ >= 0) {
            spans_->record(kInfo[l].span, t_, n, opSpan_);
        }
        t_ = n;
    }

    void
    openOp()
    {
        opSpan_ = (spans_ && opParent_ >= 0 && !spans_->full())
                      ? spans_->open("op", opParent_) : -1;
        t_ = nowNs();
    }

    void
    closeOp()
    {
        if (opSpan_ >= 0) {
            spans_->close(opSpan_);
        }
    }

    /** Charge the pad time spent inside a scheme call since
     *  @p before to crypto; returns it so the caller's lap drops it. */
    uint64_t
    padsSince(const TimedOtp::Totals &before)
    {
        TimedOtp::Totals now = otp_.totals();
        uint64_t raw = now.ns - before.ns;
        uint64_t cost = (now.calls - before.calls) * tc_;
        acc_[kPad] += raw > cost ? raw - cost : 0;
        pads_ += now.pads - before.pads;
        slicePads_ += now.pads - before.pads;
        return raw;
    }

    /** Everything after the scheme transition, as write() orders it. */
    CacheLine
    commit(uint64_t addr, StoredLineState &st, const WriteResult &r,
           unsigned &rotation_out, unsigned &slots_out)
    {
        unsigned rotation = rotation_->rotationFor(addr);
        rotation_->onWrite(addr);
        unsigned rot = rotation % CacheLine::kBits;
        CacheLine phys = rot ? r.dataDiff.rotl(rot) : r.dataDiff;
        CacheLine image = rot ? st.data.rotl(rot) : st.data;
        lap(kLevel);

        if (fault_) {
            fault_->onWrite(addr, phys, image);
            lap(kFault);
        }

        slots_out = deuce::slotsForWrite(r.dataDiff, r.metaFlips, cfg_.pcm);
        lap(kSlots);

        if (mlcOn_) {
            uint64_t counts[16] = {};
            deuce::lineKernels().mlcTransitionCounts(image ^ phys, image,
                                                     counts);
            counters_.noteMlcTransitions(counts);
            lap(kMlc);
        }
        if (recording_ && recorded_.size() < kKernelRing) {
            recorded_.push_back(Recorded{addr, r.dataDiff, phys, image, st});
        }
        rotation_out = rotation;
        return phys;
    }

    void
    persistWrite(uint64_t addr, const StoredLineState &st)
    {
        if (persist_) {
            deuce::PersistTraffic t = persist_->onWrite(addr, st);
            counters_.notePersist(t.metaReads, t.metaWrites);
            metaWrites_ += t.metaWrites;
            lap(kPersistW);
        }
    }

    void
    write(uint64_t addr, const CacheLine &data)
    {
        StoredLineState &st = install(addr);
        t_ = nowNs();
        vwl_->onWrite();
        lap(kLevel);

        TimedOtp::Totals p0 = otp_.totals();
        WriteResult r = scheme_.write(addr, data, st);
        lap(kEncode, padsSince(p0));

        unsigned rotation = 0;
        unsigned slots = 0;
        commit(addr, st, r, rotation, slots);
        counters_.noteWrite(addr, r, slots,
                            static_cast<double>(r.totalFlips()) /
                                CacheLine::kBits,
                            rotation);
        lap(kWear);
        persistWrite(addr, st);
        ++writes_;
    }

    void
    read(uint64_t addr)
    {
        StoredLineState &st = install(addr);
        t_ = nowNs();
        counters_.noteRead(addr);
        lap(kWear);
        if (persist_) {
            deuce::PersistTraffic t = persist_->onRead(addr);
            counters_.notePersist(t.metaReads, t.metaWrites);
            lap(kPersistR);
        }
        TimedOtp::Totals p0 = otp_.totals();
        CacheLine plain = scheme_.read(addr, st);
        g_sink = plain.limb(0);
        lap(kDecrypt, padsSince(p0));
    }

    void
    chunk(std::span<const WriteRequest> reqs)
    {
        const std::size_t n = reqs.size();
        states_.resize(n);
        padOffsets_.resize(n + 1);
        padReqs_.resize(4 * deuce::kMaxWritePadLines * n);
        unsigned total = 0;
        for (std::size_t i = 0; i < n; ++i) {
            StoredLineState &st = install(reqs[i].lineAddr);
            states_[i] = &st;
            padOffsets_[i] = total;
            total += scheme_.planWritePads(reqs[i].lineAddr, st,
                                           padReqs_.data() + 4 * total);
        }
        padOffsets_[n] = total;
        lap(kPlan);

        TimedOtp::Totals p0 = otp_.totals();
        padBlocks_.resize(4 * total);
        scheme_.generatePads(padReqs_.data(), padBlocks_.data(), 4 * total);
        linePads_.resize(total);
        for (unsigned p = 0; p < total; ++p) {
            linePads_[p] = CacheLine::fromBytes(padBlocks_[4 * p].data());
        }
        uint64_t added = otp_.totals().pads - p0.pads;
        pads_ += added;
        slicePads_ += added;
        lap(kPad);

        // Layer-major: each layer runs over the whole chunk between two
        // timestamps, so the timer does not break up the overlap the
        // real pipeline gets across lines. Per line the calls keep the
        // real order (wear leveler and rotation never read the data).
        physDiffs_.resize(n);
        metaDiffs_.resize(n);
        cosetDiffs_.resize(n);
        rotations_.resize(n);
        results_.resize(n);
        images_.resize(n);
        slots_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            vwl_->onWrite();
            rotations_[i] = rotation_->rotationFor(reqs[i].lineAddr);
            rotation_->onWrite(reqs[i].lineAddr);
        }
        lap(kLevel);

        for (std::size_t i = 0; i < n; ++i) {
            results_[i] = scheme_.writeWithPads(
                reqs[i].lineAddr, reqs[i].data, *states_[i],
                linePads_.data() + padOffsets_[i]);
        }
        lap(kEncode);

        for (std::size_t i = 0; i < n; ++i) {
            unsigned rot = rotations_[i] % CacheLine::kBits;
            const CacheLine &diff = results_[i].dataDiff;
            physDiffs_[i] = rot ? diff.rotl(rot) : diff;
            images_[i] = rot ? states_[i]->data.rotl(rot) : states_[i]->data;
        }
        lap(kLevel);

        if (fault_) {
            for (std::size_t i = 0; i < n; ++i) {
                fault_->onWrite(reqs[i].lineAddr, physDiffs_[i], images_[i]);
            }
            lap(kFault);
        }

        for (std::size_t i = 0; i < n; ++i) {
            slots_[i] = deuce::slotsForWrite(results_[i].dataDiff,
                                             results_[i].metaFlips, cfg_.pcm);
        }
        lap(kSlots);

        if (mlcOn_) {
            for (std::size_t i = 0; i < n; ++i) {
                uint64_t counts[16] = {};
                deuce::lineKernels().mlcTransitionCounts(
                    images_[i] ^ physDiffs_[i], images_[i], counts);
                counters_.noteMlcTransitions(counts);
            }
            lap(kMlc);
        }

        for (std::size_t i = 0; i < n; ++i) {
            const WriteResult &r = results_[i];
            counters_.noteWriteNoWear(reqs[i].lineAddr, r, slots_[i],
                                      static_cast<double>(r.totalFlips()) /
                                          CacheLine::kBits);
            metaDiffs_[i] = r.modifiedDiff | r.flipDiff;
            cosetDiffs_[i] = r.cosetDiff;
        }
        counters_.noteWearBatch(physDiffs_.data(), metaDiffs_.data(), n,
                                cosetDiffs_.data());
        lap(kWear);

        if (persist_) {
            for (std::size_t i = 0; i < n; ++i) {
                deuce::PersistTraffic t =
                    persist_->onWrite(reqs[i].lineAddr, *states_[i]);
                counters_.notePersist(t.metaReads, t.metaWrites);
                metaWrites_ += t.metaWrites;
            }
            lap(kPersistW);
        }
        for (std::size_t i = 0; i < n && recording_ &&
                                recorded_.size() < kKernelRing;
             ++i) {
            recorded_.push_back(Recorded{reqs[i].lineAddr,
                                         results_[i].dataDiff, physDiffs_[i],
                                         images_[i], *states_[i]});
        }
        writes_ += n;
    }

    const Config &cfg_;
    std::function<CacheLine(uint64_t)> initial_;
    const deuce::EncryptionScheme &scheme_;
    const TimedOtp &otp_;
    deuce::MemoryCounters counters_;
    uint64_t tc_;

    std::unique_ptr<deuce::StartGap> vwl_;
    std::unique_ptr<deuce::RotationPolicy> rotation_;
    std::unique_ptr<deuce::FaultDomain> fault_;
    std::unique_ptr<deuce::PersistDomain> persist_;
    bool mlcOn_ = false;

    std::unordered_map<uint64_t, StoredLineState> lines_;
    std::unordered_set<uint64_t> seen_;
    std::vector<deuce::LinePadRequest> padReqs_;
    std::vector<deuce::AesBlock> padBlocks_;
    std::vector<CacheLine> linePads_;
    std::vector<StoredLineState *> states_;
    std::vector<unsigned> padOffsets_;
    std::vector<CacheLine> physDiffs_;
    std::vector<uint64_t> metaDiffs_;
    std::vector<uint64_t> cosetDiffs_;
    std::vector<unsigned> rotations_;
    std::vector<WriteResult> results_;
    std::vector<CacheLine> images_;
    std::vector<unsigned> slots_;
    bool recording_ = false;
    std::vector<Recorded> recorded_;

    std::array<uint64_t, kLayers> acc_{};
    uint64_t slicePads_ = 0;
    uint64_t sliceStart_ = 0;
    uint64_t t_ = 0;
    uint64_t pads_ = 0;
    uint64_t writes_ = 0;
    uint64_t metaWrites_ = 0;

    SpanLog *spans_ = nullptr;
    int opParent_ = -1;
    int opSpan_ = -1;
};

/**
 * Time @p call over the recorded writes in slices of kSliceOps calls;
 * each slice's ns/call, times @p per_op calls per op, goes to @p out.
 */
template <typename Call>
void
timeStandalone(const std::vector<Recorded> &in, double seconds,
               double per_op, std::vector<double> &out, Call call)
{
    const uint64_t tc = timerCostNs();
    for (const Recorded &r : in) {
        call(r); // first touch of each line is not the steady cost
    }
    uint64_t deadline = deadlineAfter(seconds);
    std::size_t i = 0;
    for (;;) {
        uint64_t t0 = nowNs();
        for (uint64_t n = 0; n < kSliceOps; ++n) {
            call(in[i]);
            i = (i + 1) % in.size();
        }
        uint64_t now = nowNs();
        double ns = static_cast<double>(now - t0 - tc) / kSliceOps;
        out.push_back(ns * per_op);
        if (now >= deadline && out.size() >= 8) {
            break;
        }
    }
}

/** The stream's writebacks as whole writeBatch() bursts. */
std::vector<WriteRequest>
burstWrites(const Stream &s)
{
    std::vector<WriteRequest> w;
    for (const TraceEvent &ev : s.events) {
        if (ev.kind == EventKind::Writeback) {
            w.push_back(WriteRequest{ev.lineAddr, ev.data});
        }
    }
    w.resize(w.size() / kBurst * kBurst);
    return w;
}

/** Shared state of one traced run. */
struct Traced
{
    const Args &args;
    Report &report;
    SpanLog &spans;
    Config cfg;
    Stream stream;
    std::vector<WriteRequest> writes;
    std::unique_ptr<deuce::OtpEngine> otp;
    std::unique_ptr<deuce::EncryptionScheme> scheme;

    std::unique_ptr<MemorySystem>
    memory() const
    {
        return std::make_unique<MemorySystem>(*scheme, cfg.wl, cfg.pcm,
                                              stream.initial, cfg.fault,
                                              cfg.persist);
    }

    double share(double f) const { return args.seconds * f; }
};

/** Shadow pipeline: layer medians, traced ns/op, shadow signature. */
struct ShadowResult
{
    LayerSlices slices;
    double padsPerOp = 0.0;
    double metaWritesPerWrite = 0.0;
    uint64_t ops = 0;
    uint64_t pads = 0;
    std::vector<Recorded> recorded;
};

/**
 * Time the layers the workload's path does not call, on the recorded
 * inputs of the shadow's traced pass, through standalone instances.
 */
void
timeOffPath(Traced &tr, const deuce::EncryptionScheme &scheme,
            ShadowResult &res)
{
    const std::vector<Recorded> &in = res.recorded;
    const double writes_per_op =
        tr.cfg.batched ? 1.0
                       : static_cast<double>(tr.stream.writes) /
                             static_cast<double>(tr.stream.events.size());
    // A write-only stream has no reads: time one read per line written.
    const double reads_per_op =
        tr.stream.reads == 0 ? 1.0 : 1.0 - writes_per_op;
    const double each = tr.share(0.02);
    auto &out = res.slices.nsPerOp;
    int span = tr.spans.open("standalone");
    // Off-path layers took no time in the traced pass; their numbers
    // come from the standalone loops alone.
    for (Layer l : {kPlan, kDecrypt, kFault, kMlc, kPersistW, kPersistR}) {
        bool on_path =
            (l == kPlan && tr.cfg.batched) ||
            (l == kDecrypt && tr.stream.reads > 0) ||
            (l == kFault && tr.cfg.fault.enabled) ||
            (l == kMlc && tr.cfg.pcm.cellTech == deuce::CellTech::MLC2) ||
            ((l == kPersistW || l == kPersistR) && tr.cfg.persist.enabled);
        if (!on_path) {
            out[l].clear();
        }
    }

    if (!tr.cfg.batched) {
        std::vector<deuce::LinePadRequest> reqs(4 *
                                                deuce::kMaxWritePadLines);
        timeStandalone(in, each, writes_per_op, out[kPlan],
                       [&](const Recorded &r) {
                           g_sink = scheme.planWritePads(r.addr, r.state,
                                                         reqs.data());
                       });
    }
    if (tr.stream.reads == 0) {
        // Decrypt without its pads, which crypto.pad_ns covers.
        std::vector<double> with_pads;
        timeStandalone(in, each, reads_per_op, with_pads,
                       [&](const Recorded &r) {
                           g_sink = scheme.read(r.addr, r.state).limb(0);
                       });
        std::vector<double> pads_only;
        timeStandalone(in, each, reads_per_op, pads_only,
                       [&](const Recorded &r) {
                           g_sink = tr.otp->padForLine(r.addr,
                                                       r.state.counter)
                                        .limb(0);
                       });
        out[kDecrypt].push_back(median(with_pads) - median(pads_only));
    }
    if (!tr.cfg.fault.enabled) {
        deuce::FaultConfig fc;
        fc.enabled = true;
        fc.seed = tr.args.seed ^ 0xfa117;
        deuce::FaultDomain fault(fc);
        timeStandalone(in, each, writes_per_op, out[kFault],
                       [&](const Recorded &r) {
                           fault.onWrite(r.addr, r.phys, r.image);
                       });
    }
    if (tr.cfg.pcm.cellTech != deuce::CellTech::MLC2) {
        deuce::MemoryCounters counters(tr.cfg.pcm);
        timeStandalone(in, each, writes_per_op, out[kMlc],
                       [&](const Recorded &r) {
                           uint64_t counts[16] = {};
                           deuce::lineKernels().mlcTransitionCounts(
                               r.image ^ r.phys, r.image, counts);
                           counters.noteMlcTransitions(counts);
                       });
    }
    if (!tr.cfg.persist.enabled) {
        deuce::PersistConfig pc;
        pc.enabled = true;
        pc.numLines = uint64_t{1} << 18;
        const uint64_t mask = pc.numLines - 1;
        deuce::PersistDomain persist(pc);
        uint64_t calls = 0;
        uint64_t meta = 0;
        timeStandalone(in, each, writes_per_op, out[kPersistW],
                       [&](const Recorded &r) {
                           meta += persist.onWrite(r.addr & mask, r.state)
                                       .metaWrites;
                           ++calls;
                       });
        res.metaWritesPerWrite =
            static_cast<double>(meta) / static_cast<double>(calls);
        timeStandalone(in, each, reads_per_op, out[kPersistR],
                       [&](const Recorded &r) {
                           g_sink = persist.onRead(r.addr & mask).metaReads;
                       });
    }
    tr.spans.close(span);
}

/**
 * The shadow pipeline, run in legs. Its first pass is untimed; the
 * signature after it is the check against the real path.
 */
class ShadowRun
{
  public:
    explicit ShadowRun(Traced &tr)
        : tr_(tr), otp_(*tr.otp),
          scheme_(deuce::makeScheme(tr.cfg.scheme, otp_)),
          shadow_(tr.cfg, tr.stream, *scheme_, otp_)
    {}

    std::string
    firstPass()
    {
        int span = tr_.spans.open("shadow.first_pass");
        for (std::size_t n = 0; n < passOps(); n += step()) {
            next();
        }
        tr_.spans.close(span);
        shadow_.resetTotals();
        shadow_.record();
        return shadow_.counters().deterministicSignature();
    }

    /** Run until a slice closes after @p deadline. */
    void
    leg(uint64_t deadline)
    {
        int span = tr_.spans.open("shadow.traced");
        if (res_.ops < kSpannedOps) {
            shadow_.spanOps(&tr_.spans, span);
        }
        uint64_t in_slice = 0;
        shadow_.beginSlice();
        for (;;) {
            if (res_.ops >= kSpannedOps) {
                shadow_.spanOps(nullptr, -1);
            }
            next();
            res_.ops += step();
            in_slice += step();
            if (in_slice >= kSliceOps) {
                shadow_.endSlice(in_slice, res_.slices);
                in_slice = 0;
                if (nowNs() >= deadline) {
                    break;
                }
            }
        }
        tr_.spans.close(span);
    }

    /** Totals, then the off-path layers on the recorded inputs. */
    ShadowResult
    finish()
    {
        res_.pads = shadow_.pads();
        res_.padsPerOp = static_cast<double>(shadow_.pads()) /
                         static_cast<double>(res_.ops);
        res_.metaWritesPerWrite = static_cast<double>(shadow_.metaWrites()) /
                                  static_cast<double>(shadow_.writes());
        res_.recorded = shadow_.recorded();
        timeOffPath(tr_, *scheme_, res_);
        return std::move(res_);
    }

  private:
    uint64_t step() const { return tr_.cfg.batched ? kBurst : 1; }

    std::size_t
    passOps() const
    {
        return tr_.cfg.batched ? tr_.writes.size() : tr_.stream.events.size();
    }

    void
    next()
    {
        if (tr_.cfg.batched) {
            shadow_.burst({&tr_.writes[pos_], kBurst});
        } else {
            shadow_.event(tr_.stream.events[pos_]);
        }
        pos_ = (pos_ + step()) % passOps();
    }

    Traced &tr_;
    TimedOtp otp_;
    std::unique_ptr<deuce::EncryptionScheme> scheme_;
    Shadow shadow_;
    std::size_t pos_ = 0;
    ShadowResult res_;
};

/** MemorySystem::writeBatch(64) over the stream's writebacks. */
class BatchRun
{
  public:
    explicit BatchRun(Traced &tr) : tr_(tr), mem_(tr.memory()) {}

    std::string
    firstPass()
    {
        for (std::size_t i = 0; i < tr_.writes.size(); i += kBurst) {
            mem_->writeBatch({&tr_.writes[i], kBurst});
        }
        return mem_->counters().deterministicSignature();
    }

    void
    leg(uint64_t deadline)
    {
        int span = tr_.spans.open("sim.batch");
        slices_.start(nowNs());
        for (;;) {
            mem_->writeBatch({&tr_.writes[pos_], kBurst});
            pos_ = (pos_ + kBurst) % tr_.writes.size();
            uint64_t now = nowNs();
            if (slices_.add(kBurst, now) && now >= deadline) {
                break;
            }
        }
        tr_.spans.close(span);
    }

    const SliceClock &slices() const { return slices_; }

  private:
    Traced &tr_;
    std::unique_ptr<MemorySystem> mem_;
    std::size_t pos_ = 0;
    SliceClock slices_{kSliceOps};
};

/**
 * MemorySystem::write()/read() one event at a time, each call timed,
 * and TimingSimulator::run over the same events on the same system.
 */
class ReplayRun
{
  public:
    explicit ReplayRun(Traced &tr) : tr_(tr), mem_(tr.memory()) {}

    std::string
    firstPass()
    {
        for (const TraceEvent &ev : tr_.stream.events) {
            apply(ev);
        }
        return mem_->counters().deterministicSignature();
    }

    void
    leg(uint64_t deadline)
    {
        int span = tr_.spans.open("sim.replay");
        uint64_t ops = 0, writes = 0, reads = 0, wns = 0, rns = 0;
        uint64_t slice_start = nowNs();
        for (;;) {
            const TraceEvent &ev = tr_.stream.events[pos_];
            pos_ = (pos_ + 1) % tr_.stream.events.size();
            // Every eighth call is timed on its own: a timestamp pair
            // around every call would serialize the calls.
            if ((++calls_ & 7) != 0) {
                apply(ev);
            } else {
                uint64_t t0 = nowNs();
                apply(ev);
                uint64_t d = nowNs() - t0;
                if (ev.kind == EventKind::Writeback) {
                    wns += d;
                    ++writes;
                } else {
                    rns += d;
                    ++reads;
                }
            }
            if (++ops == kSliceOps) {
                uint64_t now = nowNs();
                perOp_.push_back(static_cast<double>(now - slice_start) /
                                 kSliceOps);
                if (writes > 0) {
                    perWrite_.push_back(static_cast<double>(wns) / writes);
                }
                if (reads > 0) {
                    perRead_.push_back(static_cast<double>(rns) / reads);
                }
                ops = writes = reads = wns = rns = 0;
                slice_start = nowNs();
                if (now >= deadline) {
                    break;
                }
            }
        }
        tr_.spans.close(span);
    }

    void
    timingLeg(uint64_t deadline)
    {
        int span = tr_.spans.open("sim.timing");
        TimedSource src(tr_.stream, deadline, timing_, nullptr, timingPos_);
        deuce::TimingSimulator timing(deuce::TimingConfig{}, tr_.cfg.pcm);
        timing.run(src, *mem_);
        timingPos_ = src.pos();
        tr_.spans.close(span);
    }

    /** A write-only stream has no reads: read back what it writes. */
    void
    readBackLeg(uint64_t deadline)
    {
        SliceClock slices(kSliceOps);
        slices.start(nowNs());
        for (std::size_t i = 0;; i = (i + 1) % tr_.writes.size()) {
            g_sink = mem_->read(tr_.writes[i].lineAddr).limb(0);
            uint64_t now = nowNs();
            if (slices.add(1, now) && now >= deadline) {
                break;
            }
        }
        perRead_.assign(1, slices.medianNsPerOp());
    }

    double nsPerOp() const { return median(perOp_); }
    double writeNs() const { return median(perWrite_); }
    double readNs() const { return median(perRead_); }
    uint64_t slices() const { return perOp_.size(); }
    const SliceClock &timing() const { return timing_; }

  private:
    void
    apply(const TraceEvent &ev)
    {
        if (ev.kind == EventKind::Writeback) {
            mem_->write(ev.lineAddr, ev.data);
        } else {
            g_sink = mem_->read(ev.lineAddr).limb(0);
        }
    }

    Traced &tr_;
    std::unique_ptr<MemorySystem> mem_;
    std::size_t pos_ = 0;
    uint64_t calls_ = 0;
    std::size_t timingPos_ = 0;
    std::vector<double> perOp_, perWrite_, perRead_;
    SliceClock timing_{kSliceOps};
};

/** Line-kernel calls the write path makes, on recorded images. */
double
timeKernels(Traced &tr, const ShadowResult &shadow, uint64_t &samples)
{
    const std::vector<Recorded> &in = shadow.recorded;
    const deuce::LineKernelOps &k = deuce::lineKernels();
    int span = tr.spans.open("common.kernels");
    std::vector<double> per_write;
    uint64_t deadline = deadlineAfter(tr.share(0.03));
    uint64_t sink = 0;
    CacheLine diff;
    std::size_t i = 0;
    for (;;) {
        uint64_t t0 = nowNs();
        for (uint64_t n = 0; n < kSliceOps; ++n) {
            const CacheLine &b = in[i].state.data;
            const CacheLine a = b ^ in[i].diff;
            i = (i + 1) % in.size();
            sink += k.diffInto(a, b, diff);
            sink += k.xorPopcount(a, b);
            sink += k.wordDiffMask(a, b, 32);
        }
        uint64_t now = nowNs();
        per_write.push_back(static_cast<double>(now - t0) / kSliceOps);
        if (now >= deadline) {
            break;
        }
    }
    g_sink = sink;
    tr.spans.close(span);
    samples = per_write.size() * kSliceOps;
    return median(per_write);
}

/** The serving core driven closed-loop with the workload's traffic. */
struct ServeProbe
{
    double sqWaitUs = 0.0;
    double cqWaitUs = 0.0;
    uint64_t waitSamples = 0;
    double burstMean = 0.0;
    uint64_t bursts = 0;
    double retriesPerOp = 0.0;
    double stallsPerOp = 0.0;
    double samplerOverheadPct = 0.0;
    uint64_t ops = 0;
    uint64_t slices = 0;
    uint64_t mismatches = 0;
};

ServeProbe
runServeProbe(Traced &tr)
{
    using deuce::serve::ShardedMemorySystem;
    deuce::serve::ServeConfig cfg;
    ClientStream cs;
    if (tr.args.workload == Workload::ServeBle) {
        cfg = serveConfig(tr.args.seed);
        cs = makeClientStream(
            makeServeStream(tr.args.seed, kServeRequests).requests);
    } else {
        cfg.scheme = tr.cfg.scheme;
        cfg.pcm = tr.cfg.pcm;
        cfg.wearLeveling = tr.cfg.wl;
        cfg.shards = kServeShards;
        cfg.tenants = 1;
        cfg.tenantAddrBits = kServeAddrBits;
        cfg.masterSeed = serveConfig(tr.args.seed).masterSeed;
        cfg.maxBurst = kBurst;
        cs = makeClientStream(streamAsRequests(tr.stream));
    }

    ShardedMemorySystem srv(cfg);
    ShardedMemorySystem::ClientPort port = srv.addClient();
    ClientState st(cs);
    srv.start();
    LoopStats bare(1024), sampled(1024);
    bare.traced = true;
    constexpr int kRounds = 4;
    double leg = tr.share(0.2) / (2 * kRounds);
    int span = tr.spans.open("serve.probe");
    for (int r = 0; r < kRounds; ++r) {
        int s = tr.spans.open("serve.bare", span);
        closedLoop(port, cs, st, UINT64_MAX, deadlineAfter(leg), bare);
        tr.spans.close(s);

        s = tr.spans.open("serve.sampled", span);
        deuce::obs::StatRegistry reg;
        srv.registerTelemetry(reg, "serve");
        deuce::obs::TelemetrySampler sampler(reg,
                                             deuce::obs::TelemetryConfig{});
        srv.attachTelemetry(sampler, "serve");
        sampler.start();
        closedLoop(port, cs, st, UINT64_MAX, deadlineAfter(leg), sampled);
        sampler.stop();
        tr.spans.close(s);
    }
    srv.stop();
    tr.spans.close(span);

    ServeProbe p;
    p.ops = bare.ops + sampled.ops;
    p.slices = bare.slices.slices() + sampled.slices.slices();
    p.mismatches = bare.readMismatches + sampled.readMismatches;
    p.sqWaitUs = median(bare.sqWaitNs) / 1e3;
    p.cqWaitUs = median(bare.cqWaitNs) / 1e3;
    p.waitSamples = bare.sqWaitNs.size();
    deuce::obs::Log2Histogram bursts;
    for (unsigned s = 0; s < srv.numShards(); ++s) {
        bursts.mergeFrom(srv.burstHistogram(s));
    }
    p.burstMean = bursts.empty() ? 0.0 : bursts.mean();
    p.bursts = bursts.count();
    double ops = static_cast<double>(p.ops);
    p.retriesPerOp =
        static_cast<double>(bare.submitRetries + sampled.submitRetries) / ops;
    p.stallsPerOp = static_cast<double>(srv.backpressureStalls()) / ops;
    double off = bare.slices.medianNsPerOp();
    p.samplerOverheadPct =
        (sampled.slices.medianNsPerOp() - off) / off * 100.0;
    return p;
}

} // namespace

void
runTraced(const Args &args, Report &report, SpanLog &spans)
{
    Traced tr{args, report, spans, configFor(args.workload, args.seed),
              Stream{}, {}, nullptr, nullptr};
    int span = spans.open("setup");
    tr.stream = makeStream(args.workload, args.seed);
    tr.writes = burstWrites(tr.stream);
    tr.otp = makeOtp(args.seed);
    tr.scheme = deuce::makeScheme(tr.cfg.scheme, *tr.otp);
    spans.close(span);

    // The shadow and the real paths run in alternating legs of ~20 ms,
    // so the reconcile compares numbers taken under the same host load.
    ShadowRun shadow_run(tr);
    BatchRun batch(tr);
    ReplayRun replay(tr);
    std::string shadow_sig = shadow_run.firstPass();
    std::string batch_sig = batch.firstPass();
    std::string replay_sig = replay.firstPass();
    uint64_t end = deadlineAfter(tr.share(0.6));
    const double leg = 0.02;
    while (nowNs() < end) {
        shadow_run.leg(deadlineAfter(leg));
        batch.leg(deadlineAfter(leg));
        replay.leg(deadlineAfter(leg));
        replay.timingLeg(deadlineAfter(leg));
    }
    if (tr.stream.reads == 0) {
        replay.readBackLeg(deadlineAfter(tr.share(0.03)));
    }
    ShadowResult sh = shadow_run.finish();
    uint64_t kernel_samples = 0;
    double kernel_ns = timeKernels(tr, sh, kernel_samples);
    ServeProbe probe = runServeProbe(tr);

    report.attempted = sh.ops + probe.ops;
    bool same = shadow_sig == (tr.cfg.batched ? batch_sig : replay_sig);
    report.check(same, "shadow pipeline signature vs the real path",
                 tr.stream.events.size());
    std::cout << "shadow vs real first-pass signature: "
              << (same ? "identical" : "DIVERGED") << "\n";
    report.check(probe.mismatches == 0, "reads in the serving probe",
                 probe.mismatches);

    const uint64_t layer_samples = sh.slices.tracedNsPerOp.size();
    auto layer = [&](Layer l) { return sh.slices.med(l); };

    // Reconcile: the real path's ns/op against the on-path layers.
    double batch_ns = batch.slices().medianNsPerOp();
    double ref = tr.cfg.batched ? batch_ns : replay.nsPerOp();
    double sum = layer(kPad) * sh.padsPerOp + layer(kEncode) +
                 layer(kLevel) + layer(kSlots) + layer(kWear);
    sum += tr.cfg.batched ? layer(kPlan) : layer(kDecrypt);
    sum += tr.cfg.fault.enabled ? layer(kFault) : 0.0;
    sum += tr.cfg.pcm.cellTech == deuce::CellTech::MLC2 ? layer(kMlc) : 0.0;
    sum += tr.cfg.persist.enabled ? layer(kPersistW) + layer(kPersistR)
                                  : 0.0;
    double traced = median(sh.slices.tracedNsPerOp);

    report.add("crypto.pad_ns", layer(kPad), "ns", sh.pads);
    report.add("crypto.pads_per_op", sh.padsPerOp, "count", sh.ops);
    report.add("common.kernel_ns", kernel_ns, "ns", kernel_samples);
    for (Layer l : {kPlan, kEncode, kDecrypt, kLevel, kSlots, kWear, kMlc,
                    kFault, kPersistW, kPersistR}) {
        report.add(kInfo[l].metric, layer(l), "ns",
                   sh.slices.nsPerOp[l].size() * kSliceOps);
    }
    report.add("persist.meta_writes_per_write", sh.metaWritesPerWrite,
               "count", sh.ops);
    report.add("sim.batch_ns", batch_ns, "ns", batch.slices().slices());
    report.add("sim.write_ns", replay.writeNs(), "ns", replay.slices());
    report.add("sim.read_ns", replay.readNs(), "ns", replay.slices());
    report.add("sim.timing_ns",
               replay.timing().medianNsPerOp() - replay.nsPerOp(), "ns",
               replay.timing().slices());
    report.add("sim.unattributed_pct", (ref - sum) / ref * 100.0, "%",
               layer_samples);
    report.add("trace.gen_ns", tr.stream.genNsPerEvent, "ns",
               tr.stream.genEvents);
    report.add("serve.sq_wait_us", probe.sqWaitUs, "us", probe.waitSamples);
    report.add("serve.cq_wait_us", probe.cqWaitUs, "us", probe.waitSamples);
    report.add("serve.burst_mean", probe.burstMean, "count", probe.bursts);
    report.add("serve.submit_retries", probe.retriesPerOp, "count",
               probe.ops);
    report.add("serve.cq_stalls", probe.stallsPerOp, "count", probe.ops);
    report.add("obs.sampler_overhead_pct", probe.samplerOverheadPct, "%",
               probe.slices);
    report.add("bench.trace_overhead_pct", (traced - ref) / ref * 100.0,
               "%", layer_samples);
}

} // namespace perfbench
