/**
 * @file
 * PersistDomain: the crash-consistency state a MemorySystem carries
 * when PersistConfig::enabled is set.
 *
 * Owns the persistence policy, the durable counter shadow (what the
 * metadata array holds), the per-line MACs, and the Merkle tree over
 * the durable counters. The domain observes every line write and read,
 * returns the metadata-array traffic each one generates (folded into
 * the system's timing/energy accounting), and can capture a
 * CrashImage at any instant.
 *
 * All state is a pure function of the write order. Per-line records
 * and the policy's dirty set are hash containers that nothing iterates
 * unsorted: the policy sorts its dirty set into address order when it
 * hands out a flush batch or the pending lines, and crash() walks the
 * lines in address order. So metadata traffic — and hence timing,
 * energy, and the crash image itself — is bit-identical at any thread
 * count.
 */

#ifndef DEUCE_PERSIST_PERSIST_DOMAIN_HH
#define DEUCE_PERSIST_PERSIST_DOMAIN_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/aes.hh"
#include "integrity/merkle.hh"
#include "persist/crash.hh"
#include "persist/persistence_policy.hh"

namespace deuce
{

namespace obs
{
class StatRegistry;
} // namespace obs

/** Metadata-array traffic generated by one access. */
struct PersistTraffic
{
    /** Metadata line reads (MAC fetch in front of a demand read). */
    uint64_t metaReads = 0;

    /** Metadata line writes (counter + tree-leaf flushes). */
    uint64_t metaWrites = 0;

    /**
     * The subset of metaWrites on the access's critical path. A
     * write-through policy flushes synchronously, so its metadata
     * writes occupy the store's service slot; lazy and battery-backed
     * flushes are write-behind from the on-chip counter cache and
     * stream to the metadata array in idle slots (they still cost
     * energy and wear via metaWrites).
     */
    uint64_t criticalMetaWrites = 0;
};

/** Crash-consistency bookkeeping of one memory system. */
class PersistDomain
{
  public:
    explicit PersistDomain(const PersistConfig &cfg);

    const PersistConfig &config() const { return cfg_; }
    const CounterPersistencePolicy &policy() const { return *policy_; }
    const PersistStats &stats() const { return stats_; }

    /** Lines whose counters are newer on chip than in the array. */
    uint64_t volatileCounters() const { return policy_->dirtyCount(); }

    /**
     * The scheme-agnostic monotone write counter the MAC binds:
     * the line counter plus every block counter. Any scheme's write
     * advances it by at least one.
     */
    static uint64_t effectiveCounter(const StoredLineState &state);

    /**
     * Observe one completed line write (@p state is the post-write
     * stored state). Computes the line's MAC (durable with the data),
     * marks the counter dirty, and performs any flush the policy
     * schedules. @return the metadata-array writes generated.
     */
    PersistTraffic onWrite(uint64_t line, const StoredLineState &state);

    /** Observe one line read (MAC fetch when integrity is modeled). */
    PersistTraffic onRead(uint64_t line);

    /**
     * Power loss. Builds the durable image from @p lines (the
     * system's live line store) and resets the domain to its
     * post-reboot state (fresh policy, empty shadow, fresh tree).
     *
     * @param mid_flush land the crash in the middle of a counter
     *        flush: the first pending counter reaches the array but
     *        its tree path does not (a torn flush — the image's tree
     *        fails verification for that leaf group).
     */
    CrashImage crash(
        const std::unordered_map<uint64_t, StoredLineState> &lines,
        bool mid_flush);

    /**
     * Adopt recovered lines: each line's counter state becomes both
     * live and durable and its MAC is recomputed; then one tree batch
     * rebuilds every adopted line's path.
     */
    void adopt(const std::map<uint64_t, StoredLineState> &lines);

    /** The Merkle tree over the durable counters (null without
     *  integrity). */
    const MerkleCounterTree *tree() const { return tree_.get(); }

    /** Credit repairs applied by a RecoveryEngine (stat only). */
    void noteRecoveryRepairs(uint64_t repairs)
    {
        stats_.recoveryRepairs += repairs;
    }

    /** Register the persist.* stat section under @p prefix. */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Counter fields of a StoredLineState (the lagging state). */
    struct Fields
    {
        uint64_t counter = 0;
        std::array<uint64_t, 4> blockCounters{};
    };

    /** What the domain tracks for one written (or adopted) line. */
    struct LineMeta
    {
        Fields live;    ///< on-chip counter fields
        Fields durable; ///< array counter fields (zero until flushed)
        uint64_t mac = 0; ///< durable MAC, written with the data
                          ///< (integrity only)
    };

    static Fields fieldsOf(const StoredLineState &state);
    static uint64_t effectiveOf(const Fields &f);

    /** Persist @p batch (address-ordered): shadow, tree, traffic. */
    uint64_t flushBatch(const std::vector<uint64_t> &batch);

    PersistConfig cfg_;
    std::unique_ptr<CounterPersistencePolicy> policy_;
    Aes128 macCipher_;
    std::unique_ptr<MerkleCounterTree> tree_;

    /** One record per line ever written or adopted since boot. */
    std::unordered_map<uint64_t, LineMeta> meta_;

    /** Scratch: the tree updates of one flush or adoption. */
    std::vector<CounterUpdate> updates_;

    PersistStats stats_;
};

} // namespace deuce

#endif // DEUCE_PERSIST_PERSIST_DOMAIN_HH
