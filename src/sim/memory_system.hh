/**
 * @file
 * MemorySystem: composes an encryption scheme, wear-leveling policies,
 * and the PCM device models into one secure PCM main memory.
 *
 * Responsibilities:
 *  - per-line stored state (ciphertext image, counters, tracking bits)
 *  - install-on-first-touch (pages arrive encrypted, no flips charged)
 *  - per-write accounting: bit flips (data + metadata), write slots,
 *    energy, and per-bit-position wear (with the current HWL rotation)
 *  - vertical wear leveling bookkeeping (Start-Gap advance)
 *
 * The stored image kept here is the *logical* ciphertext; the HWL
 * rotation only affects which physical cells the flips land on, which
 * is exactly what WearTracker records.
 */

#ifndef DEUCE_SIM_MEMORY_SYSTEM_HH
#define DEUCE_SIM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/cache_line.hh"
#include "common/line_table.hh"
#include "common/stats.hh"
#include "enc/scheme.hh"
#include "obs/stat.hh"
#include "fault/fault_domain.hh"
#include "pcm/config.hh"
#include "persist/crash.hh"
#include "persist/persist_domain.hh"
#include "persist/recovery.hh"
#include "pcm/energy.hh"
#include "pcm/wear_tracker.hh"
#include "pcm/write_slots.hh"
#include "sim/memory_counters.hh"
#include "wear/rotation.hh"
#include "wear/security_refresh.hh"
#include "wear/start_gap.hh"
#include "wear/vwl.hh"

namespace deuce
{

/** Wear-leveling configuration of a MemorySystem. */
struct WearLevelingConfig
{
    /** Enable vertical wear leveling. */
    bool verticalEnabled = true;

    /** Which vertical wear-leveling algorithm to run. */
    enum class Engine { StartGap, SecurityRefresh } engine =
        Engine::StartGap;

    /** Lines covered by the wear-leveled region (power of two for
     *  Security Refresh). */
    uint64_t numLines = 1 << 16;

    /** Demand writes between gap movements / refresh steps. */
    uint64_t gapWriteInterval = 100;

    /** Intra-line rotation policy. */
    enum class Rotation { None, Hwl, HwlHashed, PerLine } rotation =
        Rotation::None;
};

/** One queued writeback for the batched write pipeline. */
struct WriteRequest
{
    uint64_t lineAddr = 0;
    CacheLine data;
};

/** Operation kind of a mixed burst entry. */
enum class MemOp : uint8_t { Read, Write };

/** One entry of a mixed read/write burst (MemorySystem::applyBurst). */
struct MemRequest
{
    MemOp op = MemOp::Read;
    uint64_t lineAddr = 0;
    CacheLine data; ///< write payload (ignored for reads)
};

/** Per-write outcome surfaced to callers. */
struct WriteOutcome
{
    /** Full accounting from the scheme transition. */
    WriteResult result;

    /** Write slots consumed (Section 6.1 model). */
    unsigned slots = 0;

    /**
     * Device write-service latency of this store in nanoseconds.
     * Exactly slots * writeSlotNs under SLC (the historical model);
     * under MLC2 each slot is stretched to the slowest level
     * transition the write performs (iterative program-and-verify
     * paces the whole slot), never below writeSlotNs.
     */
    double writeLatencyNs = 0.0;

    /** Fraction of the 512 line bits flipped (incl. metadata). */
    double flipFraction = 0.0;

    /** Cells newly covered by ECP on this write (faults enabled). */
    unsigned faultCorrectedCells = 0;

    /** This write exceeded ECP capacity; the line was retired. */
    bool faultUncorrectable = false;

    /** Critical-path metadata-array writes the counter-persistence
     *  model charged to this store (synchronous write-through
     *  flushes; 0 for write-behind policies or when the model is
     *  off). */
    unsigned persistMetaWrites = 0;
};

/** A mixed burst's write outcomes and read plaintexts, each in
 *  submission order (spans into the system's arenas). */
struct BurstOutcome
{
    std::span<const WriteOutcome> writes;
    std::span<const CacheLine> reads;
};

/** A secure PCM main memory for one scheme + wear-leveling combo. */
class MemorySystem
{
  public:
    /**
     * @param scheme   encryption scheme (not owned; must outlive us)
     * @param wl       wear-leveling configuration
     * @param pcm      device parameters
     * @param initial  callback providing a line's plaintext contents
     *                 at install time
     * @param fault    end-of-life fault model (disabled by default;
     *                 a disabled system is bit-identical to one built
     *                 before the fault subsystem existed)
     * @param persist  counter-persistence / crash-consistency model
     *                 (disabled by default, same bit-identical
     *                 guarantee)
     */
    MemorySystem(const EncryptionScheme &scheme,
                 const WearLevelingConfig &wl = WearLevelingConfig{},
                 const PcmConfig &pcm = PcmConfig{},
                 std::function<CacheLine(uint64_t)> initial = {},
                 const FaultConfig &fault = FaultConfig{},
                 const PersistConfig &persist = PersistConfig{});

    /**
     * Move-only handle: shards live directly in a std::vector with no
     * unique_ptr indirection. Moving transfers the line store and all
     * counters; internal cross-references (the rotation policy's view
     * of the VWL engine) stay valid because both live behind stable
     * heap pointers. Stats registered via registerStats() bind to the
     * object's address — register only once the system has reached
     * its final home.
     */
    MemorySystem(MemorySystem &&) noexcept = default;
    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;
    MemorySystem &operator=(MemorySystem &&) = delete;

    /**
     * Write back a line (installing it first if never seen): a burst
     * of one, without the burst's WriteBatch flight event. Reuses the
     * outcome arena, so it also ends the life of the span the last
     * writeBatch() or applyBurst() returned.
     */
    WriteOutcome write(uint64_t line_addr, const CacheLine &plaintext);

    /**
     * Apply a burst of reads and writes in submission order, in
     * chunks that close when an address repeats: every op of a chunk
     * installs and plans its pads against pre-chunk state, all pads
     * come from one cipher stream (where wide AES backends earn their
     * keep), and the ops commit in order, the writes' wear landing
     * through the cross-line kernels. Bit-identical to read() and
     * write() per request, in order, for every scheme. The spans live
     * until the next write(), writeBatch() or applyBurst().
     */
    BurstOutcome applyBurst(std::span<const MemRequest> requests);

    /** Write back a burst of lines: applyBurst()'s write-only case. */
    std::span<const WriteOutcome>
    writeBatch(std::span<const WriteRequest> requests);

    /** Read (decrypt) a line, installing it if never seen: the charge
     *  of a burst's read, then EncryptionScheme::read(). */
    CacheLine read(uint64_t line_addr);

    /**
     * Authenticated read: read() — same install, charges and decrypt
     * — followed by PersistDomain::verify() of the stored state
     * against the on-chip counters and root. The plaintext reaches
     * @p out only on Ok. read() itself never verifies: the MAC and
     * tree path would cost every read on the hot path.
     *
     * Requires a persist domain with integrity on (fatal otherwise).
     */
    ReadStatus readVerified(uint64_t line_addr, CacheLine &out);

    // -- attack surface (what a bus/memory tamperer can reach) -------
    // Each may overwrite what lives in memory — stored state, the
    // MAC, the tree's stored counter — never the root or the live
    // counters. Those that reach the line store install it first.

    /** Flip one stored ciphertext bit. */
    void tamperDataBit(uint64_t line_addr, unsigned bit);

    /** Overwrite the tree's stored counter of the line (persist
     *  domain with integrity required). */
    void tamperCounter(uint64_t line_addr, uint64_t value);

    /** Capture the line's stored state and MAC. */
    LineSnapshot snapshot(uint64_t line_addr);

    /**
     * Replay an old snapshot: restore the stored state, the MAC, and
     * the tree's stored counter at the snapshot's effective counter
     * (persist domain with integrity required).
     */
    void replaySnapshot(uint64_t line_addr, const LineSnapshot &snap);

    /** True iff the line has been installed. */
    bool contains(uint64_t line_addr) const;

    /** Direct access to a line's stored state (for tests/inspection). */
    const StoredLineState &storedState(uint64_t line_addr) const;

    const EncryptionScheme &scheme() const { return scheme_; }
    const WearTracker &wearTracker() const { return counters_.wear(); }
    const EnergyAccumulator &energy() const
    {
        return counters_.energy();
    }
    const PcmConfig &pcmConfig() const { return pcm_; }

    /** Running mean of flip fraction per write. */
    const RunningStat &flipStat() const { return counters_.flipStat(); }

    /** Running mean of write slots per write. */
    const RunningStat &slotStat() const { return counters_.slotStat(); }

    /** Distribution of write slots per write (log2 buckets). */
    const obs::Log2Histogram &slotHistogram() const
    {
        return counters_.slotHistogram();
    }

    /** Distribution of total cell flips per write (log2 buckets). */
    const obs::Log2Histogram &flipHistogram() const
    {
        return counters_.flipHistogram();
    }

    /** Per-bank accounting (see sim/memory_counters.hh). */
    using BankCounters = deuce::BankCounters;

    /** Counters of bank @p bank (0 .. pcmConfig().totalBanks()-1). */
    const BankCounters &bankCounters(unsigned bank) const
    {
        return counters_.bank(bank);
    }

    /**
     * The full shard-local accounting state (mergeable across shards;
     * see MemoryCounters).
     */
    const MemoryCounters &counters() const { return counters_; }

    /**
     * Register the classic counters under @p prefix (dotted, e.g.
     * "system.pcm"). The text dump of a registry populated by this
     * call is byte-identical to the historical hand-written
     * stats_dump output. The system must outlive every dump.
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Register the post-registry detail stats (per-bank counters,
     * slot/flip histograms, the scheme engine's pad count, fault
     * and persist counters) under @p prefix.
     * Kept separate from registerStats() so the classic text dump
     * stays byte-compatible; the JSON dump registers both.
     */
    void registerDetailStats(obs::StatRegistry &reg,
                             const std::string &prefix) const;

    /** The VWL engine (null when vertical WL is disabled). */
    const VerticalWearLeveler *vwl() const { return vwl_.get(); }

    /** The fault domain (null when faults are disabled). */
    const FaultDomain *fault() const { return fault_.get(); }

    /** The persistence domain (null when the model is disabled). */
    const PersistDomain *persist() const { return persist_.get(); }

    /**
     * Power loss (persist model required). Captures the durable image
     * — data/tracking bits current, counters rolled back to their
     * last durable values — and clears the volatile line store; the
     * system then represents the rebooted controller, ready to have
     * recovered lines adopted back.
     *
     * @param mid_flush land the crash mid counter-flush (torn flush:
     *        the image's tree fails verification for that leaf group)
     */
    CrashImage crash(bool mid_flush = false);

    /**
     * Adopt one line's stored state verbatim (recovery, or a test
     * seam). The persist domain, when present, records the state as
     * both live and durable and rebuilds the line's MAC/tree path.
     * No flips or traffic are charged.
     */
    void adoptLine(uint64_t line_addr, const StoredLineState &state);

    /**
     * Adopt a RecoveryEngine's outcome wholesale (the persist domain
     * rebuilds every adopted line's tree path in one batch) and
     * credit the repairs to the persist.* stats.
     */
    void adoptRecovery(const RecoveryOutcome &outcome);

    /** The wear-leveling configuration this system was built with. */
    const WearLevelingConfig &wlConfig() const { return wlCfg_; }

    /** The engine as a Start-Gap (null if disabled or a different
     *  algorithm is configured). The engine advertises its kind, so
     *  the downcast is checked without RTTI. */
    const StartGap *
    startGap() const
    {
        if (vwl_ && vwl_->kind() == VwlKind::StartGap) {
            return static_cast<const StartGap *>(vwl_.get());
        }
        return nullptr;
    }

  private:
    StoredLineState &install(uint64_t line_addr);

    /** Charge one read: the read counters, then the persist domain's
     *  read traffic. */
    void chargeRead(uint64_t line_addr);

    /** Commit @p requests (WriteRequest or MemRequest) through
     *  applyChunk(), one duplicate-free chunk at a time. */
    template <class Request>
    void runBurst(std::span<const Request> requests);

    /**
     * Commit one duplicate-free slice of a burst (plan → generate →
     * write/readWithPads → accounting), appending to the outcome and
     * read arenas. Every read and write, single or batched, lands here.
     */
    template <class Request>
    void applyChunk(std::span<const Request> chunk);

    /**
     * MLC2 accounting of one committed write: build the physical
     * (rotation-paired) transition histogram, charge it to the energy
     * model, and stretch the write latency to the slowest transition
     * present. @p phys_diff is the pre-rotated data diff; @p new_data
     * the post-write logical image.
     */
    void chargeMlcWrite(const CacheLine &phys_diff,
                        const CacheLine &new_data, unsigned rot,
                        WriteOutcome &outcome);

    /**
     * Reused buffers of the batch pipeline: one allocation-free slab
     * per system after warm-up instead of per-write heap traffic.
     * Line-state pointers stay valid across install() growth
     * (LineTable never moves records).
     */
    struct BatchScratch
    {
        std::vector<LinePadRequest> padReqs;
        std::vector<AesBlock> pads;
        std::vector<CacheLine> linePads;
        std::vector<StoredLineState *> states;
        std::vector<unsigned> padOffsets;
        std::vector<CacheLine> physDiffs;
        std::vector<uint64_t> metaDiffs;
        std::vector<uint64_t> cosetDiffs;
        std::vector<WriteOutcome> outcomes;
        std::vector<CacheLine> reads;
        std::unordered_set<uint64_t> seen;
    };

    const EncryptionScheme &scheme_;
    WearLevelingConfig wlCfg_;
    PcmConfig pcm_;
    std::function<CacheLine(uint64_t)> initial_;

    std::unique_ptr<VerticalWearLeveler> vwl_;
    std::unique_ptr<RotationPolicy> rotation_;
    std::unique_ptr<FaultDomain> fault_;
    std::unique_ptr<PersistDomain> persist_;

    LineTable<StoredLineState> lines_;
    MemoryCounters counters_;
    BatchScratch scratch_;
};

} // namespace deuce

#endif // DEUCE_SIM_MEMORY_SYSTEM_HH
