/**
 * @file
 * Configuration and counters of the crash-consistency model.
 *
 * DEUCE's security argument rests on counter-mode pads never being
 * reused, but the per-line write counters are themselves state that
 * must survive power loss. A real controller caches counters on chip
 * (volatile) and persists them to the NVM metadata array under some
 * policy; a crash between the data write and the counter flush leaves
 * the durable counter *stale* — and a system that naively resumes
 * from the stale counter replays pads (Yao & Venkataramani,
 * "Architecting NVM to Guard Against Persistence-based Attacks").
 *
 * The persist subsystem models that gap: which counter/Merkle state
 * is durable vs volatile at any instant (persist_domain.hh), what
 * metadata traffic keeping it durable costs (folded into the timing /
 * energy model), what a power loss leaves behind (crash.hh), and how
 * recovery detects and repairs the damage (recovery.hh). Everything
 * is off by default (PersistConfig::enabled); a disabled system is
 * bit-identical to one built before the subsystem existed.
 */

#ifndef DEUCE_PERSIST_PERSIST_CONFIG_HH
#define DEUCE_PERSIST_PERSIST_CONFIG_HH

#include <cstdint>

namespace deuce
{

/** Knobs of the counter-persistence / crash-consistency model. */
struct PersistConfig
{
    /** Master switch; when false the write/read paths are untouched. */
    bool enabled = false;

    /**
     * How the on-chip (volatile) counter state reaches the durable
     * metadata array.
     *
     *  - WriteThrough: every counter update is persisted immediately.
     *    Zero pad-reuse window; one metadata write per line write.
     *  - Lazy: dirty counters accumulate on chip and are bulk-flushed
     *    every flushEpoch line writes. Cheap, but a crash loses up to
     *    flushEpoch counter increments per line.
     *  - BatteryBacked: a small capacitor-backed write queue holds
     *    pending counter updates; overflow evicts the oldest entry to
     *    the array, and residual charge drains the queue on power
     *    loss. Zero reuse window at near-lazy runtime cost.
     */
    enum class Policy { WriteThrough, Lazy, BatteryBacked } policy =
        Policy::Lazy;

    /** Line writes between bulk counter flushes (Lazy). */
    uint64_t flushEpoch = 64;

    /** Pending-entry capacity of the write queue (BatteryBacked). */
    unsigned queueDepth = 16;

    /**
     * Model the integrity metadata (per-line MAC + Merkle counter
     * tree over the *durable* counters). Required for recovery to
     * detect counter-atomicity violations; without it a stale counter
     * is silently resumed and pads are replayed.
     */
    bool integrity = true;

    /** Children per Merkle node (counters per leaf group). */
    unsigned treeArity = 8;

    /**
     * Line-address space covered by the Merkle counter tree. Grown
     * automatically by the experiment runner to cover the workload's
     * working set.
     */
    uint64_t numLines = uint64_t{1} << 16;

    /** Seed deriving the MAC / tree hash key (fused on chip). */
    uint64_t keySeed = 0x9e75157;
};

/** Human-readable policy name ("write-through", "lazy", "battery"). */
constexpr const char *
persistPolicyName(PersistConfig::Policy policy)
{
    switch (policy) {
      case PersistConfig::Policy::WriteThrough:
        return "write-through";
      case PersistConfig::Policy::Lazy:
        return "lazy";
      case PersistConfig::Policy::BatteryBacked:
        return "battery";
    }
    return "?";
}

/**
 * Upper bound on how far a line's durable counter can lag its live
 * counter under @p cfg's policy: flushEpoch for lazy flushing, zero
 * for write-through and for a battery that drains at power loss.
 * Recovery searches candidate counters within this window.
 */
constexpr uint64_t
worstCaseWindow(const PersistConfig &cfg)
{
    return cfg.policy == PersistConfig::Policy::Lazy ? cfg.flushEpoch : 0;
}

/** Running counters of the persistence domain. */
struct PersistStats
{
    /** Live (on-chip) counter updates observed. */
    uint64_t counterWrites = 0;

    /** Flush events (each may persist many counters). */
    uint64_t counterFlushes = 0;

    /** Counters made durable across all flushes. */
    uint64_t flushedCounters = 0;

    /** Metadata-array reads charged to the runtime (MAC fetches). */
    uint64_t metaReads = 0;

    /** Metadata-array writes charged to the runtime (counter +
     *  tree-path flushes). */
    uint64_t metaWrites = 0;

    /** Per-line MACs computed (atomic with the data write). */
    uint64_t macWrites = 0;

    /** Per-line MAC fetches on the read path. */
    uint64_t macReads = 0;

    /** Merkle tree path updates (durable counter flushes). */
    uint64_t treeUpdates = 0;

    /** Lines repaired into this system by a RecoveryEngine. */
    uint64_t recoveryRepairs = 0;
};

} // namespace deuce

#endif // DEUCE_PERSIST_PERSIST_CONFIG_HH
