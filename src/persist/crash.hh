/**
 * @file
 * CrashImage: what a power loss leaves behind, and the CrashInjector
 * that decides when it happens.
 *
 * The durability model (Section 10 of DESIGN.md): a line write is
 * atomic — ciphertext, tracking bits (modified/flip/mode bits) and the
 * per-line MAC land in the array together. Only the write *counters*
 * lag: they are cached on chip and reach the durable metadata array on
 * the schedule of the configured PersistConfig::policy. A crash
 * therefore yields lines whose data is current but whose durable
 * counters may be stale by up to worstCaseWindow(config) — exactly
 * the state a persistence-based attacker wants a naive controller to
 * resume from.
 *
 * The image holds nothing derivable: a line's durable effective
 * counter is PersistDomain::effectiveCounter() of its rolled-back
 * state, and a line is tracked (written or adopted since boot) when
 * it has an entry in liveCounters.
 */

#ifndef DEUCE_PERSIST_CRASH_HH
#define DEUCE_PERSIST_CRASH_HH

#include <cstdint>
#include <map>
#include <memory>

#include "enc/scheme.hh"
#include "integrity/merkle.hh"
#include "persist/persist_config.hh"

namespace deuce
{

/** The durable state of a memory system at the instant of power loss. */
struct CrashImage
{
    /** Configuration the crashed system ran with. */
    PersistConfig config;

    /** The crash interrupted a counter flush mid-tree-update. */
    bool tornFlush = false;

    /** Line whose tree path the torn flush left stale. */
    uint64_t tornLine = 0;

    /**
     * Durable per-line state: data and tracking bits are current
     * (written atomically with the line), counter fields are rolled
     * back to their last durable values.
     */
    std::map<uint64_t, StoredLineState> lines;

    /** Durable per-line MACs (integrity configs only; a MAC is
     *  written atomically with its line's data). */
    std::map<uint64_t, uint64_t> macs;

    /**
     * Ground truth: the *live* effective counters at the crash
     * instant, one per tracked line. A real controller has lost the
     * values; recovery reads only which lines have one, except to
     * quantify undetected pad reuse when integrity metadata is
     * disabled.
     */
    std::map<uint64_t, uint64_t> liveCounters;

    /**
     * The Merkle tree over the durable counters (integrity configs
     * only). Its root survives in the tamper-proof on-chip register;
     * the rest is the attackable durable metadata.
     */
    std::unique_ptr<MerkleCounterTree> tree;
};

/**
 * Kills the system after a chosen write index. Usage: arm the
 * injector, call onWrite() after every line write, and capture the
 * crash image from the first call that returns true.
 */
class CrashInjector
{
  public:
    /** Crash fires after write number @p crash_index (0-based). */
    explicit CrashInjector(uint64_t crash_index)
        : crashIndex_(crash_index)
    {}

    /**
     * Seeded crash-point selection: a deterministic index in
     * [0, max_exclusive), SplitMix64 over @p seed, so sweeps can
     * scatter crash points reproducibly.
     */
    static uint64_t chooseIndex(uint64_t seed, uint64_t max_exclusive);

    /**
     * Record one completed write. @return true exactly once, on the
     * write the injector is armed for.
     */
    bool
    onWrite()
    {
        return writes_++ == crashIndex_;
    }

    uint64_t crashIndex() const { return crashIndex_; }
    uint64_t writesObserved() const { return writes_; }
    bool fired() const { return writes_ > crashIndex_; }

  private:
    uint64_t crashIndex_;
    uint64_t writes_ = 0;
};

} // namespace deuce

#endif // DEUCE_PERSIST_CRASH_HH
