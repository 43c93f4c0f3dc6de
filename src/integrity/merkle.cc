/**
 * @file
 * Merkle counter-tree implementation.
 */

#include "integrity/merkle.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.hh"

namespace deuce
{

namespace
{

/** Fixed MMO IV (arbitrary bytes). */
constexpr Digest kIv = {0x6a, 0, 0, 0, 0, 0, 0, 0,
                        0, 0, 0, 0, 0, 0, 0, 0x5c};

/** Longest node message: 16 child digests. */
constexpr size_t kMaxMessage = 16 * 16;

/** Chains hashed per encryptBlocks call (hashMany) and nodes formed
 *  per message buffer (rehash). */
constexpr size_t kChains = 64;

/**
 * Block @p b of a @p len-byte message. The final partial block is
 * zero-padded and the length folded into its last byte.
 */
AesBlock
messageBlock(const uint8_t *msg, size_t len, size_t b)
{
    AesBlock m{};
    size_t pos = 16 * b;
    size_t chunk = std::min<size_t>(16, len - pos);
    std::memcpy(m.data(), msg + pos, chunk);
    if (chunk < 16) {
        m[15] = static_cast<uint8_t>(len & 0xff);
    }
    return m;
}

} // namespace

void
hashMany(const Aes128 &cipher, const uint8_t *data, size_t len,
         size_t count, Digest *out)
{
    // Matyas–Meyer–Oseas over 16-byte blocks: H_i = E(H_{i-1} ^ M_i)
    // ^ M_i from a fixed IV, run for up to kChains messages side by
    // side so each block step is one wide encryptBlocks call.
    const size_t blocks = (len + 15) / 16;
    AesBlock m[kChains];
    AesBlock x[kChains];
    for (size_t first = 0; first < count; first += kChains) {
        const size_t n = std::min(kChains, count - first);
        const uint8_t *msgs = data + first * len;
        Digest *h = out + first;
        std::fill(h, h + n, kIv);
        for (size_t b = 0; b < blocks; ++b) {
            for (size_t i = 0; i < n; ++i) {
                m[i] = messageBlock(msgs + i * len, len, b);
                for (unsigned k = 0; k < 16; ++k) {
                    x[i][k] = static_cast<uint8_t>(h[i][k] ^ m[i][k]);
                }
            }
            cipher.encryptBlocks(x, x, n);
            for (size_t i = 0; i < n; ++i) {
                for (unsigned k = 0; k < 16; ++k) {
                    h[i][k] = static_cast<uint8_t>(x[i][k] ^ m[i][k]);
                }
            }
        }
    }
}

Digest
hashBytes(const Aes128 &cipher, const uint8_t *data, size_t len)
{
    Digest h;
    hashMany(cipher, data, len, 1, &h);
    return h;
}

uint64_t
macLine(const Aes128 &cipher, uint64_t line_addr, uint64_t counter,
        const CacheLine &ciphertext)
{
    uint8_t buf[16 + CacheLine::kBytes];
    for (unsigned i = 0; i < 8; ++i) {
        buf[i] = static_cast<uint8_t>(line_addr >> (8 * i));
        buf[8 + i] = static_cast<uint8_t>(counter >> (8 * i));
    }
    ciphertext.toBytes(buf + 16);
    Digest d = hashBytes(cipher, buf, sizeof(buf));
    uint64_t tag = 0;
    for (unsigned i = 0; i < 8; ++i) {
        tag |= static_cast<uint64_t>(d[i]) << (8 * i);
    }
    return tag;
}

MerkleCounterTree::MerkleCounterTree(uint64_t num_lines,
                                     const AesKey &key, unsigned arity)
    : cipher_(key), arity_(arity), numLines_(num_lines)
{
    deuce_assert(arity >= 2 && arity <= 16);
    deuce_assert(num_lines >= 1);
    counters_.assign(num_lines, 0);

    // Build the level sizes bottom-up until a single node remains.
    uint64_t width = (num_lines + arity - 1) / arity;
    for (;;) {
        nodes_.emplace_back(width);
        if (width == 1) {
            break;
        }
        width = (width + arity - 1) / arity;
    }

    // Initialise digests for the all-zero counters, a level at a time.
    std::vector<uint64_t> all;
    for (unsigned level = 0; level < nodes_.size(); ++level) {
        all.resize(nodes_[level].size());
        std::iota(all.begin(), all.end(), uint64_t{0});
        rehash(level, all);
    }
    refreshRoot();
}

size_t
MerkleCounterTree::messageLen(unsigned level) const
{
    return (level == 0 ? 8 : 16) * size_t{arity_};
}

void
MerkleCounterTree::nodeMessage(unsigned level, uint64_t index,
                               uint8_t *buf) const
{
    size_t len = 0;
    if (level == 0) {
        for (unsigned c = 0; c < arity_; ++c) {
            uint64_t line = index * arity_ + c;
            uint64_t value = line < numLines_ ? counters_[line] : 0;
            for (unsigned b = 0; b < 8; ++b) {
                buf[len++] = static_cast<uint8_t>(value >> (8 * b));
            }
        }
        return;
    }
    const std::vector<Digest> &children = nodes_[level - 1];
    for (unsigned c = 0; c < arity_; ++c) {
        uint64_t child = index * arity_ + c;
        if (child < children.size()) {
            std::memcpy(buf + len, children[child].data(), 16);
        } else {
            std::memset(buf + len, 0, 16);
        }
        len += 16;
    }
}

void
MerkleCounterTree::rehash(unsigned level,
                          const std::vector<uint64_t> &indices)
{
    uint8_t msgs[kChains * kMaxMessage];
    Digest digests[kChains];
    std::vector<Digest> &row = nodes_[level];
    const size_t len = messageLen(level);
    for (size_t first = 0; first < indices.size(); first += kChains) {
        const size_t n = std::min(kChains, indices.size() - first);
        for (size_t i = 0; i < n; ++i) {
            nodeMessage(level, indices[first + i], msgs + i * len);
        }
        hashMany(cipher_, msgs, len, n, digests);
        for (size_t i = 0; i < n; ++i) {
            row[indices[first + i]] = digests[i];
        }
    }
}

void
MerkleCounterTree::refreshRoot()
{
    root_ = hashBytes(cipher_, nodes_.back()[0].data(), 16);
}

void
MerkleCounterTree::updateBatch(std::span<const CounterUpdate> updates)
{
    if (updates.empty()) {
        return;
    }
    dirty_.clear();
    for (const CounterUpdate &u : updates) {
        deuce_assert(u.line < numLines_);
        counters_[u.line] = u.counter;
        dirty_.push_back(u.line / arity_);
    }
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());

    // Each level depends only on the finished level below it, so
    // every dirty node is hashed once, from final children.
    for (unsigned level = 0;; ++level) {
        rehash(level, dirty_);
        if (level + 1 == nodes_.size()) {
            break;
        }
        // Parents of sorted nodes are sorted: dedupe runs in place.
        size_t w = 0;
        for (uint64_t index : dirty_) {
            uint64_t parent = index / arity_;
            if (w == 0 || dirty_[w - 1] != parent) {
                dirty_[w++] = parent;
            }
        }
        dirty_.resize(w);
    }
    refreshRoot();
}

void
MerkleCounterTree::update(uint64_t line, uint64_t counter)
{
    const CounterUpdate one{line, counter};
    updateBatch({&one, 1});
}

uint64_t
MerkleCounterTree::counter(uint64_t line) const
{
    deuce_assert(line < numLines_);
    return counters_[line];
}

const Digest &
MerkleCounterTree::digest(unsigned level, uint64_t index) const
{
    deuce_assert(level < nodes_.size());
    deuce_assert(index < nodes_[level].size());
    return nodes_[level][index];
}

uint64_t
MerkleCounterTree::width(unsigned level) const
{
    deuce_assert(level < nodes_.size());
    return nodes_[level].size();
}

bool
MerkleCounterTree::verify(uint64_t line) const
{
    deuce_assert(line < numLines_);
    uint64_t index = line / arity_;

    // Recompute the leaf digest from the stored counters and walk up
    // using the stored sibling digests; any tampering below the root
    // changes the recomputed root.
    uint8_t buf[kMaxMessage];
    nodeMessage(0, index, buf);
    Digest current = hashBytes(cipher_, buf, messageLen(0));
    for (unsigned level = 1; level < nodes_.size(); ++level) {
        uint64_t parent = index / arity_;
        nodeMessage(level, parent, buf);
        std::memcpy(buf + 16 * (index - parent * arity_), current.data(),
                    16);
        current = hashBytes(cipher_, buf, messageLen(level));
        index = parent;
    }
    Digest computed_root = hashBytes(cipher_, current.data(), 16);
    return computed_root == root_;
}

void
MerkleCounterTree::tamperCounter(uint64_t line, uint64_t value)
{
    deuce_assert(line < numLines_);
    counters_[line] = value;
}

void
MerkleCounterTree::tamperDigest(unsigned level, uint64_t index)
{
    deuce_assert(level < nodes_.size());
    deuce_assert(index < nodes_[level].size());
    nodes_[level][index][0] ^= 0x01;
}

} // namespace deuce
