/**
 * @file
 * Integrity protection for counter-mode encrypted NVM (extension).
 *
 * The paper's footnote 1 notes that an attacker who can *tamper* with
 * memory or the bus (not just snoop) could reset a line's counter and
 * force one-time-pad reuse, and points to Merkle-tree authentication
 * (Yan et al. ISCA-2006, Rogers et al. MICRO-2007) as the defense.
 * This module implements that defense as an optional layer:
 *
 *  - MerkleCounterTree: a hash tree over the per-line write counters.
 *    Only the root lives in tamper-proof on-chip storage; counters
 *    and interior digests live in (attackable) memory. Any rollback
 *    or modification of a stored counter is detected on verify().
 *
 *  - macLine(): a per-line MAC binding (address, counter,
 *    ciphertext), detecting tampering with the data itself.
 *
 * The hash is an AES-based Matyas–Meyer–Oseas construction — the
 * same block cipher the OTP engine already provisions, which is how
 * a memory controller would realistically implement it.
 */

#ifndef DEUCE_INTEGRITY_MERKLE_HH
#define DEUCE_INTEGRITY_MERKLE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/cache_line.hh"
#include "crypto/aes.hh"

namespace deuce
{

/** 128-bit digest. */
using Digest = AesBlock;

/** AES-MMO hash of an arbitrary byte string (not length-padded
 *  against extension attacks; inputs here are fixed-format). */
Digest hashBytes(const Aes128 &cipher, const uint8_t *data,
                 size_t len);

/**
 * AES-MMO of @p count messages of @p len bytes each, packed back to
 * back in @p data, written to @p out. The chains are independent, so
 * block b of every message goes through one Aes128::encryptBlocks
 * call (the wide backend pipelines); digest i is bit-identical to
 * hashBytes(cipher, data + i * len, len).
 */
void hashMany(const Aes128 &cipher, const uint8_t *data, size_t len,
              size_t count, Digest *out);

/**
 * The per-line MAC key derived from a fused integrity key seed
 * (PersistConfig::keySeed). The MAC and the counter tree share one
 * seed but never one key: treeKey() derives the tree's from it.
 */
AesKey macKey(uint64_t key_seed);

/** The counter-tree hash key derived from the same seed. */
AesKey treeKey(uint64_t key_seed);

/** 64-bit MAC binding a line's (address, counter, ciphertext). */
uint64_t macLine(const Aes128 &cipher, uint64_t line_addr,
                 uint64_t counter, const CacheLine &ciphertext);

/** One trusted counter store: MerkleCounterTree::updateBatch input. */
struct CounterUpdate
{
    uint64_t line = 0;
    uint64_t counter = 0;
};

/**
 * Merkle tree over per-line write counters.
 *
 * Leaves are groups of `arity` counters; each interior node is the
 * hash of its children's digests. updateBatch() stores a batch of
 * counters and then recomputes every node the batch dirtied exactly
 * once, level by level: the dirty nodes of one level hash together
 * as interleaved MMO chains (hashMany), and the trusted root is
 * re-hashed once per batch. The resulting digests are the same as
 * those of the updates applied one at a time, so update() is simply a
 * batch of one. verify() recomputes one path from *stored* values and
 * compares against the trusted root, detecting any out-of-band
 * modification (e.g. a counter rollback attack).
 */
class MerkleCounterTree
{
  public:
    /**
     * @param num_lines counters covered (rounded up internally)
     * @param key       hash key (would be fused on-chip)
     * @param arity     children per node (counters per leaf group)
     */
    MerkleCounterTree(uint64_t num_lines, const AesKey &key,
                      unsigned arity = 8);

    /**
     * Trusted writes: store every counter in @p updates (in order, so
     * a line listed twice keeps its last value), then recompute each
     * dirtied node once and the root once. An empty batch changes
     * nothing.
     */
    void updateBatch(std::span<const CounterUpdate> updates);

    /** Trusted write of one counter: a batch of one. */
    void update(uint64_t line, uint64_t counter);

    /** Stored (attackable) counter value. */
    uint64_t counter(uint64_t line) const;

    /**
     * Recompute the path from stored state and compare to the
     * trusted root. @return true iff the stored counter (and every
     * digest on its path) is authentic.
     */
    bool verify(uint64_t line) const;

    /** The tamper-proof root digest. */
    const Digest &root() const { return root_; }

    /** Stored digest of node @p index at @p level (0 = leaf groups). */
    const Digest &digest(unsigned level, uint64_t index) const;

    /** Nodes stored at @p level. */
    uint64_t width(unsigned level) const;

    /**
     * Attack surface (for tests and demos): overwrite the stored
     * counter *without* maintaining the tree, as a bus/memory
     * tampering adversary would.
     */
    void tamperCounter(uint64_t line, uint64_t value);

    /** Attack surface: corrupt a stored interior digest. */
    void tamperDigest(unsigned level, uint64_t index);

    uint64_t numLines() const { return numLines_; }
    unsigned levels() const
    {
        return static_cast<unsigned>(nodes_.size());
    }

  private:
    /** Bytes hashed per node at @p level: 8 per counter at the
     *  leaves, 16 per child digest above. */
    size_t messageLen(unsigned level) const;

    /** Write the messageLen(level)-byte hash input of node @p index
     *  at @p level from stored state: the group's counters (level 0)
     *  or its children's digests, zero past the end. */
    void nodeMessage(unsigned level, uint64_t index,
                     uint8_t *buf) const;

    /** Recompute and store the digests of nodes @p indices of
     *  @p level from their stored inputs, as interleaved chains. */
    void rehash(unsigned level, const std::vector<uint64_t> &indices);

    /** Re-hash the top node into the trusted root. */
    void refreshRoot();

    Aes128 cipher_;
    unsigned arity_;
    uint64_t numLines_;
    std::vector<uint64_t> counters_;
    /** nodes_[0] = leaf-group digests, nodes_.back() = root's children
     *  level; every level is stored in attackable memory. */
    std::vector<std::vector<Digest>> nodes_;
    Digest root_{}; ///< tamper-proof on-chip register
    /** updateBatch() scratch: the dirty node indices of one level. */
    std::vector<uint64_t> dirty_;
};

} // namespace deuce

#endif // DEUCE_INTEGRITY_MERKLE_HH
