/**
 * @file
 * The untraced runs that produce the end-to-end metrics.
 *
 * Each run sets up kSetupReps times (generation + construction +
 * warm-up pass) and reports the median as setup_s; the simulated
 * metrics come from the last warm-up pass, so they depend on the seed
 * only. The timed phase then replays the stream in passes for the
 * requested seconds, and the output checks run after it.
 */

#include <algorithm>
#include <iostream>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "enc/scheme_factory.hh"
#include "serve_loop.hh"
#include "sources.hh"
#include "sim/timing.hh"

namespace perfbench
{

namespace
{

using deuce::EventKind;
using deuce::MemorySystem;
using deuce::WriteRequest;
using deuce::serve::ReqOp;
using deuce::serve::ServeConfig;
using deuce::serve::ShardedMemorySystem;

constexpr int kSetupReps = 5;

/** Slice sizes: each slice is roughly a millisecond. */
constexpr uint64_t kReplaySliceOps = 1024;
constexpr uint64_t kMlcSliceOps = 256;
constexpr uint64_t kServeSliceOps = 1024;

/** serve-ble moves its threads round the CPUs every leg of 100 ms. */
constexpr uint64_t kServeLegNs = 100'000'000;

/** Simulated metrics of one warm-up pass. */
struct SimMetrics
{
    double flipPct = 0.0;
    double slotsPerWrite = 0.0;
    double writePj = 0.0;
    double simMs = 0.0;
};

/**
 * Device service time of a pass without a timing model: every write
 * slot and every array read, summed over banks.
 */
double
serviceMs(const deuce::MemoryCounters &c, const deuce::PcmConfig &pcm)
{
    return (static_cast<double>(c.totalWriteSlots()) * pcm.writeSlotNs +
            static_cast<double>(c.totalReads()) * pcm.readLatencyNs) /
           1e6;
}

SimMetrics
simMetrics(const deuce::MemoryCounters &c, const deuce::PcmConfig &pcm)
{
    SimMetrics m;
    double writes = static_cast<double>(c.energy().writes());
    m.flipPct = c.flipStat().mean() * 100.0;
    m.slotsPerWrite = static_cast<double>(c.totalWriteSlots()) / writes;
    m.writePj = c.energy().writeEnergyPj() / writes;
    m.simMs = serviceMs(c, pcm);
    return m;
}

/** Shared tail of every untraced report. */
void
addCommon(Report &report, const std::vector<double> &setup,
          const SimMetrics &sim, const SliceClock &slices,
          const LatencyWindows &lat)
{
    report.add("setup_s", median(setup), "s", setup.size());
    report.add("kops_per_s", slices.kopsPerSec(), "kops/s",
               slices.slices());
    report.add("p50_us", lat.p50Us(), "us", lat.samples());
    report.add("p99_us", lat.p99Us(), "us", lat.samples());
    report.add("peak_rss_mb", peakRssMb(), "MB", 1);
    report.add("flip_pct", sim.flipPct, "%", 1);
    report.add("slots_per_write", sim.slotsPerWrite, "slots", 1);
    report.add("write_pj", sim.writePj, "pJ", 1);
    report.add("sim_ms", sim.simMs, "ms", 1);
}

/** A memory system over a generated stream, after one warm-up pass. */
struct Rig
{
    Config cfg;
    Stream stream;
    std::unique_ptr<deuce::OtpEngine> otp;
    std::unique_ptr<deuce::EncryptionScheme> scheme;
    std::unique_ptr<MemorySystem> mem;
    std::vector<WriteRequest> writes;
    std::string signature;
    SimMetrics sim;
};

std::unique_ptr<MemorySystem>
makeMemory(const Rig &rig)
{
    return std::make_unique<MemorySystem>(*rig.scheme, rig.cfg.wl,
                                          rig.cfg.pcm, rig.stream.initial,
                                          rig.cfg.fault, rig.cfg.persist);
}

std::unique_ptr<Rig>
buildRig(Workload w, uint64_t seed)
{
    auto rig = std::make_unique<Rig>();
    rig->cfg = configFor(w, seed);
    rig->stream = makeStream(w, seed);
    rig->otp = makeOtp(seed);
    rig->scheme = deuce::makeScheme(rig->cfg.scheme, *rig->otp);
    rig->mem = makeMemory(*rig);
    if (w == Workload::TimedMlc) {
        deuce::TimingSimulator timing(deuce::TimingConfig{}, rig->cfg.pcm);
        OnceSource src(rig->stream);
        deuce::TimingResult t = timing.run(src, *rig->mem);
        rig->sim = simMetrics(rig->mem->counters(), rig->cfg.pcm);
        rig->sim.simMs = t.executionNs / 1e6;
    } else {
        for (const TraceEvent &ev : rig->stream.events) {
            rig->writes.push_back(WriteRequest{ev.lineAddr, ev.data});
        }
        for (std::size_t i = 0; i < rig->writes.size(); i += kBurst) {
            rig->mem->writeBatch(
                std::span<const WriteRequest>(&rig->writes[i], kBurst));
        }
        rig->sim = simMetrics(rig->mem->counters(), rig->cfg.pcm);
    }
    rig->signature = rig->mem->counters().deterministicSignature();
    return rig;
}

std::unique_ptr<Rig>
setupRig(const Args &args, std::vector<double> &setup, SpanLog &spans)
{
    std::unique_ptr<Rig> rig;
    for (int r = 0; r < kSetupReps; ++r) {
        rig.reset();
        rotateCpu();
        int span = spans.open("setup");
        uint64_t t0 = nowNs();
        rig = buildRig(args.workload, args.seed);
        setup.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        spans.close(span);
    }
    return rig;
}

/** Every line the pass wrote reads back as its last plaintext. */
void
checkReadBack(Rig &rig, Report &report)
{
    uint64_t bad = 0;
    auto expected = rig.stream.finalContents();
    for (const auto &[addr, data] : expected) {
        if (!(rig.mem->read(addr) == data)) {
            ++bad;
        }
    }
    report.check(bad == 0, "read-back after the timed phase", bad);
    std::cout << "read-back: " << expected.size() << " lines, " << bad
              << " mismatches\n";
}

void
runReplayDeuce(const Args &args, Report &report, SpanLog &spans)
{
    std::vector<double> setup;
    std::unique_ptr<Rig> rig = setupRig(args, setup, spans);
    MemorySystem &mem = *rig->mem;
    const std::vector<WriteRequest> &writes = rig->writes;

    SliceClock slices(kReplaySliceOps);
    LatencyWindows lat;
    int span = spans.open("timed");
    std::size_t pos = 0;
    rotateCpu();
    uint64_t start = nowNs();
    uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
    slices.start(start);
    for (;;) {
        uint64_t t0 = nowNs();
        mem.writeBatch(std::span<const WriteRequest>(&writes[pos], kBurst));
        uint64_t t1 = nowNs();
        lat.add(t1 - t0);
        pos = (pos + kBurst) % writes.size();
        if (slices.add(kBurst, t1)) {
            if (t1 >= deadline) {
                break;
            }
            if (slices.slices() % kSlicesPerCpu == 0) {
                rotateCpu();
                slices.start(nowNs());
            }
        }
    }
    spans.close(span);
    report.attempted = slices.ops();

    // Finish the pass so every line holds its final plaintext.
    while (pos != 0) {
        mem.writeBatch(std::span<const WriteRequest>(&writes[pos], kBurst));
        pos = (pos + kBurst) % writes.size();
    }
    checkReadBack(*rig, report);

    // The batch pipeline must match one-at-a-time writes exactly.
    rig->mem = makeMemory(*rig);
    for (const WriteRequest &w : writes) {
        rig->mem->write(w.lineAddr, w.data);
    }
    bool same =
        rig->mem->counters().deterministicSignature() == rig->signature;
    report.check(same, "writeBatch(64) signature vs batch-1 replay",
                 writes.size());
    std::cout << "batch-1 signature: " << (same ? "identical" : "DIVERGED")
              << " over " << writes.size() << " writes\n";

    addCommon(report, setup, rig->sim, slices, lat);
}

void
runTimedMlc(const Args &args, Report &report, SpanLog &spans)
{
    std::vector<double> setup;
    std::unique_ptr<Rig> rig = setupRig(args, setup, spans);
    MemorySystem &mem = *rig->mem;

    SliceClock slices(kMlcSliceOps);
    LatencyWindows lat;
    int span = spans.open("timed");
    uint64_t deadline =
        nowNs() + static_cast<uint64_t>(args.seconds * 1e9);
    TimedSource src(rig->stream, deadline, slices, &lat, 0, true);
    deuce::TimingSimulator timing(deuce::TimingConfig{}, rig->cfg.pcm);
    timing.run(src, mem);
    spans.close(span);
    report.attempted = slices.ops();

    for (std::size_t i = src.pos(); i != 0 && i < rig->stream.events.size();
         ++i) {
        const TraceEvent &ev = rig->stream.events[i];
        if (ev.kind == EventKind::Writeback) {
            mem.write(ev.lineAddr, ev.data);
        } else {
            mem.read(ev.lineAddr);
        }
    }
    checkReadBack(*rig, report);
    addCommon(report, setup, rig->sim, slices, lat);
}

} // namespace

ServeConfig
serveConfig(uint64_t seed)
{
    ServeConfig cfg;
    cfg.scheme = configFor(Workload::ServeBle, seed).scheme;
    cfg.shards = kServeShards;
    cfg.tenants = kServeTenants;
    cfg.tenantAddrBits = kServeAddrBits;
    cfg.masterSeed = seed * 0x2545f4914f6cdd1dull + 0xfeedface;
    cfg.fastOtp = false;
    cfg.maxBurst = kBurst;
    return cfg;
}

namespace
{

struct ServeRig
{
    ServeConfig cfg;
    ClientStream cs;
    std::unique_ptr<ShardedMemorySystem> srv;
    std::optional<ShardedMemorySystem::ClientPort> port;
    std::unique_ptr<ClientState> st;
    std::string signature;
    SimMetrics sim;
    uint64_t warmMismatches = 0;
};

std::unique_ptr<ServeRig>
buildServeRig(uint64_t seed)
{
    auto rig = std::make_unique<ServeRig>();
    rig->cfg = serveConfig(seed);
    rig->cs = makeClientStream(makeServeStream(seed, kServeRequests).requests);
    rig->srv = std::make_unique<ShardedMemorySystem>(rig->cfg);
    rig->port.emplace(rig->srv->addClient());
    rig->st = std::make_unique<ClientState>(rig->cs);
    rig->srv->start();
    LoopStats warm(kServeSliceOps);
    closedLoop(*rig->port, rig->cs, *rig->st, rig->cs.requests.size(),
               UINT64_MAX, warm);
    rig->srv->stop();
    rig->warmMismatches = warm.readMismatches;
    deuce::MemoryCounters agg = rig->srv->aggregateCounters();
    rig->signature = agg.deterministicSignature();
    rig->sim = simMetrics(agg, rig->cfg.pcm);
    rig->srv->start();
    return rig;
}

void
runServeBle(const Args &args, Report &report, SpanLog &spans)
{
    std::vector<double> setup;
    std::unique_ptr<ServeRig> rig;
    for (int r = 0; r < kSetupReps; ++r) {
        rig.reset();
        int span = spans.open("setup");
        uint64_t t0 = nowNs();
        rig = buildServeRig(args.seed);
        setup.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        spans.close(span);
    }

    LoopStats stats(kServeSliceOps);
    int span = spans.open("timed");
    uint64_t deadline =
        nowNs() + static_cast<uint64_t>(args.seconds * 1e9);
    std::vector<pid_t> workers = otherThreads();
    for (unsigned leg = 0; nowNs() < deadline; ++leg) {
        placeThreads(workers, leg);
        closedLoop(*rig->port, rig->cs, *rig->st, UINT64_MAX,
                   std::min(deadline, nowNs() + kServeLegNs), stats);
    }
    rig->srv->stop();
    spans.close(span);
    report.attempted = stats.ops;

    report.check(rig->warmMismatches == 0, "reads in the warm-up pass",
                 rig->warmMismatches);
    report.check(stats.readMismatches == 0, "reads in the timed phase",
                 stats.readMismatches);
    std::cout << "in-flight read checks: " << stats.readMismatches
              << " mismatches over " << stats.ops << " requests\n";

    deuce::MemoryCounters ref =
        deuce::serve::replaySequential(rig->cfg, rig->cs.requests);
    bool same = ref.deterministicSignature() == rig->signature;
    report.check(same, "sharded aggregate vs replaySequential",
                 rig->cs.requests.size());
    std::cout << "sharded vs sequential signature: "
              << (same ? "identical" : "DIVERGED") << "\n";

    addCommon(report, setup, rig->sim, stats.slices, stats.latency);
}

} // namespace

ClientStream
makeClientStream(std::vector<deuce::serve::Request> reqs)
{
    ClientStream cs;
    std::unordered_map<uint64_t, uint32_t> ids;
    cs.line.reserve(reqs.size());
    for (const deuce::serve::Request &r : reqs) {
        uint64_t key = (static_cast<uint64_t>(r.tenant) << 48) | r.addr;
        auto [it, fresh] = ids.emplace(key, cs.lines);
        cs.lines += fresh ? 1 : 0;
        cs.line.push_back(it->second);
    }
    cs.requests = std::move(reqs);
    return cs;
}

ClientState::ClientState(const ClientStream &cs) : shadow(cs.lines)
{
    for (unsigned s = 0; s < kServeWindow; ++s) {
        freeSlots.push_back(s);
    }
}

void
closedLoop(ShardedMemorySystem::ClientPort &port, const ClientStream &cs,
           ClientState &st, uint64_t max_submits, uint64_t deadline_ns,
           LoopStats &stats)
{
    const std::size_t n = cs.requests.size();
    unsigned outstanding = 0;
    uint64_t submitted = 0;
    bool stopping = false;
    deuce::serve::Completion c;

    auto reap = [&] {
        bool any = false;
        while (port.tryPoll(c)) {
            any = true;
            uint64_t t = nowNs();
            unsigned slot = static_cast<unsigned>(c.seq & 0xff);
            const ClientState::Slot &sl = st.slots[slot];
            if (sl.read && !(c.data == sl.expected)) {
                ++stats.readMismatches;
            }
            st.freeSlots.push_back(slot);
            --outstanding;
            ++stats.ops;
            stats.latency.add(t - c.submitNs);
            if (stats.traced && (stats.ops & 15) == 0) {
                stats.sqWaitNs.push_back(
                    static_cast<double>(c.completeNs - c.submitNs));
                stats.cqWaitNs.push_back(
                    static_cast<double>(t - c.completeNs));
            }
            if (stats.slices.add(1, t) && t >= deadline_ns) {
                stopping = true;
            }
        }
        return any;
    };

    stats.slices.start(nowNs());
    for (;;) {
        while (!stopping && outstanding < kServeWindow) {
            deuce::serve::Request req = cs.requests[st.pos];
            uint32_t line = cs.line[st.pos];
            st.pos = (st.pos + 1) % n;
            unsigned slot = st.freeSlots.back();
            st.freeSlots.pop_back();
            req.seq = (st.serial++ << 8) | slot;
            ClientState::Slot &sl = st.slots[slot];
            sl.read = req.op == ReqOp::Read;
            if (sl.read) {
                sl.expected = st.shadow[line];
            } else {
                st.shadow[line] = req.data;
            }
            req.submitNs = nowNs();
            while (!port.trySubmit(req)) {
                ++stats.submitRetries;
                reap();
            }
            ++outstanding;
            if (++submitted == max_submits) {
                stopping = true;
            }
        }
        if (!reap()) {
            // Nothing to reap: let a shard worker that shares this
            // CPU run, instead of waiting for the next scheduler tick.
            std::this_thread::yield();
        }
        if (stopping && outstanding == 0) {
            return;
        }
    }
}

void
runWorkload(const Args &args, Report &report, SpanLog &spans)
{
    switch (args.workload) {
      case Workload::ReplayDeuce:
        runReplayDeuce(args, report, spans);
        break;
      case Workload::TimedMlc:
        runTimedMlc(args, report, spans);
        break;
      case Workload::ServeBle:
        runServeBle(args, report, spans);
        break;
    }
}

} // namespace perfbench
