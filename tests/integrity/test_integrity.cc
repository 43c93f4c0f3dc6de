/**
 * @file
 * Tests for the integrity extension: the AES-MMO hash, per-line MACs,
 * the Merkle counter tree, and end-to-end tamper detection through
 * AuthenticatedMemory (rollback, data tampering, digest corruption).
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "integrity/authenticated_memory.hh"
#include "integrity/merkle.hh"

namespace deuce
{
namespace
{

AesKey
testKey(uint8_t fill = 0x3c)
{
    AesKey k;
    k.fill(fill);
    return k;
}

TEST(Hash, DeterministicAndInputSensitive)
{
    Aes128 cipher(testKey());
    uint8_t a[] = {1, 2, 3, 4};
    uint8_t b[] = {1, 2, 3, 5};
    EXPECT_EQ(hashBytes(cipher, a, sizeof(a)),
              hashBytes(cipher, a, sizeof(a)));
    EXPECT_NE(hashBytes(cipher, a, sizeof(a)),
              hashBytes(cipher, b, sizeof(b)));
    EXPECT_NE(hashBytes(cipher, a, 3), hashBytes(cipher, a, 4));
}

TEST(Hash, KeyedByCipher)
{
    Aes128 c1(testKey(0x11)), c2(testKey(0x22));
    uint8_t msg[] = {9, 9, 9};
    EXPECT_NE(hashBytes(c1, msg, 3), hashBytes(c2, msg, 3));
}

TEST(Hash, LongInputsChainAcrossBlocks)
{
    Aes128 cipher(testKey());
    uint8_t msg[100] = {};
    Digest d1 = hashBytes(cipher, msg, sizeof(msg));
    msg[99] ^= 1; // change the last block only
    Digest d2 = hashBytes(cipher, msg, sizeof(msg));
    msg[99] ^= 1;
    msg[0] ^= 1; // change the first block only
    Digest d3 = hashBytes(cipher, msg, sizeof(msg));
    EXPECT_NE(d1, d2);
    EXPECT_NE(d1, d3);
    EXPECT_NE(d2, d3);
}

TEST(Hash, KnownAnswersPinTheMmoDefinition)
{
    // Recorded from the one-block-at-a-time MMO loop this hash
    // started as: a 24-byte message (an arity-3 leaf, so the final
    // block is zero-padded with the length folded in), a 128-byte
    // one, and an arity-3 tree root.
    Aes128 cipher(testKey());
    uint8_t msg[128];
    for (unsigned i = 0; i < sizeof(msg); ++i) {
        msg[i] = static_cast<uint8_t>(i * 13 + 5);
    }
    EXPECT_EQ(hashBytes(cipher, msg, 24),
              (Digest{0x5d, 0xa2, 0x73, 0x03, 0x54, 0x59, 0x44, 0xd3,
                      0xd6, 0x41, 0x1d, 0x4a, 0xd4, 0xd8, 0x05, 0x52}));
    EXPECT_EQ(hashBytes(cipher, msg, 128),
              (Digest{0xbe, 0xd6, 0x98, 0x7f, 0x46, 0x03, 0x9a, 0x9e,
                      0xae, 0x55, 0x14, 0xfd, 0x22, 0xa3, 0x40, 0x2c}));
    MerkleCounterTree tree(7, testKey(), 3);
    tree.update(5, 9);
    tree.update(0, 2);
    EXPECT_EQ(tree.root(),
              (Digest{0x2a, 0x80, 0x40, 0x63, 0xd8, 0xba, 0x14, 0x1a,
                      0x36, 0x65, 0x45, 0x08, 0x25, 0x42, 0x9f, 0x9a}));
}

TEST(Hash, ManyMatchesOneAtATime)
{
    // Every message length class (empty, partial, whole blocks) and
    // chain counts on both sides of hashMany's internal chunking.
    Aes128 cipher(testKey());
    Rng rng(17);
    for (size_t len : {0u, 1u, 15u, 16u, 24u, 80u, 128u, 256u}) {
        for (size_t count : {1u, 3u, 63u, 64u, 65u, 130u}) {
            std::vector<uint8_t> msgs(len * count);
            for (uint8_t &b : msgs) {
                b = static_cast<uint8_t>(rng.next());
            }
            std::vector<Digest> out(count);
            hashMany(cipher, msgs.data(), len, count, out.data());
            for (size_t i = 0; i < count; ++i) {
                ASSERT_EQ(out[i], hashBytes(cipher, msgs.data() + i * len,
                                            len))
                    << "len " << len << " count " << count << " msg "
                    << i;
            }
        }
    }
}

TEST(LineMac, BindsAddressCounterAndData)
{
    Aes128 cipher(testKey());
    Rng rng(1);
    CacheLine data;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        data.limb(i) = rng.next();
    }
    uint64_t base = macLine(cipher, 5, 7, data);
    EXPECT_EQ(macLine(cipher, 5, 7, data), base);
    EXPECT_NE(macLine(cipher, 6, 7, data), base);
    EXPECT_NE(macLine(cipher, 5, 8, data), base);
    CacheLine tweaked = data;
    tweaked.setBit(300, !tweaked.bit(300));
    EXPECT_NE(macLine(cipher, 5, 7, tweaked), base);
}

TEST(MerkleCounterTree, UpdateThenVerify)
{
    MerkleCounterTree tree(100, testKey());
    for (uint64_t line = 0; line < 100; ++line) {
        EXPECT_TRUE(tree.verify(line));
    }
    tree.update(42, 7);
    EXPECT_EQ(tree.counter(42), 7u);
    for (uint64_t line = 0; line < 100; ++line) {
        EXPECT_TRUE(tree.verify(line));
    }
}

TEST(MerkleCounterTree, DetectsCounterRollback)
{
    MerkleCounterTree tree(100, testKey());
    tree.update(10, 5);
    ASSERT_TRUE(tree.verify(10));
    tree.tamperCounter(10, 4); // the rollback of footnote 1
    EXPECT_FALSE(tree.verify(10));
    // Siblings in the same leaf group are also invalidated (shared
    // leaf digest), but distant lines still verify.
    EXPECT_TRUE(tree.verify(90));
}

TEST(MerkleCounterTree, DetectsInteriorDigestTampering)
{
    MerkleCounterTree tree(1000, testKey());
    tree.update(1, 1);
    ASSERT_GE(tree.levels(), 2u);
    // Corrupt the stored digest of leaf group 0 (lines 0..7). A line
    // in group 0 recomputes its own leaf digest, so the corruption
    // surfaces when verifying a *sibling* group, which consumes the
    // stored digest on its path.
    tree.tamperDigest(0, 0);
    EXPECT_FALSE(tree.verify(8));
    // The honest root still proves lines in far-away subtrees.
    EXPECT_TRUE(tree.verify(999));
}

TEST(MerkleCounterTree, RootChangesWithEveryUpdate)
{
    MerkleCounterTree tree(64, testKey());
    Digest r0 = tree.root();
    tree.update(0, 1);
    Digest r1 = tree.root();
    tree.update(63, 1);
    Digest r2 = tree.root();
    EXPECT_NE(r0, r1);
    EXPECT_NE(r1, r2);
}

TEST(MerkleCounterTree, SingleLineTree)
{
    MerkleCounterTree tree(1, testKey());
    EXPECT_TRUE(tree.verify(0));
    tree.update(0, 3);
    EXPECT_TRUE(tree.verify(0));
    tree.tamperCounter(0, 2);
    EXPECT_FALSE(tree.verify(0));
}

/** Root and every stored digest of @p a and @p b are equal. */
void
expectSameTree(const MerkleCounterTree &a, const MerkleCounterTree &b)
{
    ASSERT_EQ(a.levels(), b.levels());
    EXPECT_EQ(a.root(), b.root());
    for (unsigned level = 0; level < a.levels(); ++level) {
        ASSERT_EQ(a.width(level), b.width(level));
        for (uint64_t i = 0; i < a.width(level); ++i) {
            ASSERT_EQ(a.digest(level, i), b.digest(level, i))
                << "level " << level << " node " << i;
        }
    }
}

TEST(MerkleCounterTree, BatchMatchesPerLineUpdates)
{
    // Ragged last nodes (line counts that are not powers of the
    // arity), odd arities (leaves that end in a partial block), seeded
    // random batches and a batch that repeats a line: updateBatch()
    // must leave every digest exactly where the same updates applied
    // one at a time would.
    for (unsigned arity : {2u, 3u, 8u, 16u}) {
        for (uint64_t lines : {uint64_t{1}, uint64_t{7}, uint64_t{1000},
                               uint64_t{1} << 14}) {
            SCOPED_TRACE("arity " + std::to_string(arity) + " lines " +
                         std::to_string(lines));
            MerkleCounterTree batched(lines, testKey(), arity);
            MerkleCounterTree single(lines, testKey(), arity);
            expectSameTree(batched, single);

            Rng rng(arity * 131 + lines);
            for (size_t size : {1u, 5u, 64u, 300u}) {
                std::vector<CounterUpdate> batch(size);
                for (CounterUpdate &u : batch) {
                    u.line = rng.nextBounded(lines);
                    u.counter = rng.next();
                }
                // Repeat a line: the later value must win.
                batch.push_back({batch.front().line, rng.next()});
                batched.updateBatch(batch);
                for (const CounterUpdate &u : batch) {
                    single.update(u.line, u.counter);
                }
                EXPECT_EQ(batched.counter(batch.front().line),
                          batch.back().counter);
                expectSameTree(batched, single);
            }

            const Digest root = batched.root();
            batched.updateBatch({});
            EXPECT_EQ(batched.root(), root);
            for (uint64_t line : {uint64_t{0}, lines / 2, lines - 1}) {
                EXPECT_TRUE(batched.verify(line));
            }
        }
    }
}

/** FNV-1a over every stored node digest, level by level. */
uint64_t
nodeDigestsHash(const MerkleCounterTree &tree)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned level = 0; level < tree.levels(); ++level) {
        for (uint64_t i = 0; i < tree.width(level); ++i) {
            for (uint8_t b : tree.digest(level, i)) {
                h = (h ^ b) * 0x100000001b3ull;
            }
        }
    }
    return h;
}

TEST(MerkleCounterTree, KnownAnswersAfterSeededBatches)
{
    // Roots and node-digest hashes recorded from the per-line path
    // re-hash the batched update replaced, after the same 600 seeded
    // updates applied one at a time. Shapes: arity 8 with a ragged
    // top, arity 16 over 2^14 lines, arity 3 (partial-block leaves,
    // seven levels, interior nodes with children past the end) and
    // arity 8 over 2^18 + 5 lines (seven levels).
    struct Case
    {
        unsigned arity;
        uint64_t lines;
        unsigned levels;
        Digest built;
        Digest updated;
        uint64_t nodes;
    };
    const Case cases[] = {
        {8, 1000, 4,
         {0x26, 0x3a, 0xa8, 0x5b, 0xee, 0x1c, 0x8e, 0x31, 0xb8, 0xb6, 0xec,
          0x13, 0x12, 0x7d, 0x25, 0xe6},
         {0x0d, 0xc6, 0x83, 0x9d, 0xbf, 0x81, 0x18, 0xd0, 0xd3, 0x85, 0x9f,
          0x8f, 0xc7, 0x6e, 0x86, 0xd3},
         0x46cb8049dc815cf5ull},
        {16, uint64_t{1} << 14, 4,
         {0x03, 0x9b, 0x89, 0x10, 0x73, 0x5a, 0x8b, 0x59, 0x3d, 0x4c, 0x15,
          0xe3, 0x9a, 0x49, 0x9c, 0xbb},
         {0xfb, 0xa7, 0x14, 0x52, 0x39, 0xce, 0x51, 0xaf, 0x05, 0x68, 0x59,
          0xb9, 0x64, 0x70, 0xf1, 0x40},
         0x1fb333ed0d8317d9ull},
        {3, 1000, 7,
         {0x2d, 0x97, 0x8a, 0x64, 0x73, 0xcd, 0x55, 0xab, 0x84, 0x89, 0x89,
          0x78, 0xac, 0x4e, 0x5d, 0x69},
         {0x3f, 0xeb, 0x70, 0x7d, 0x55, 0xed, 0x8a, 0x6e, 0x58, 0xc8, 0x23,
          0x4a, 0x66, 0x02, 0x49, 0xcf},
         0x149d22bcd51a4ab0ull},
        {8, (uint64_t{1} << 18) + 5, 7,
         {0xe9, 0x2b, 0x6f, 0x3c, 0x43, 0x7d, 0x85, 0x4e, 0xfd, 0x9a, 0x16,
          0xb8, 0x80, 0xce, 0xa5, 0x7e},
         {0x31, 0xbe, 0xaa, 0x34, 0x33, 0x9e, 0xfc, 0xc5, 0x73, 0x45, 0x27,
          0x55, 0x18, 0xce, 0x87, 0x88},
         0x75e2da951d8b0fb2ull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE("arity " + std::to_string(c.arity) + " lines " +
                     std::to_string(c.lines));
        MerkleCounterTree tree(c.lines, testKey(), c.arity);
        ASSERT_EQ(tree.levels(), c.levels);
        EXPECT_EQ(tree.root(), c.built);

        Rng rng(c.arity * 1009 + c.lines);
        std::vector<CounterUpdate> updates(600);
        for (CounterUpdate &u : updates) {
            u.line = rng.nextBounded(c.lines);
            u.counter = rng.next();
        }
        // Uneven batches: one line, a short run, then the rest.
        const std::span<const CounterUpdate> all(updates);
        tree.updateBatch(all.subspan(0, 1));
        tree.updateBatch(all.subspan(1, 99));
        tree.updateBatch(all.subspan(100));
        EXPECT_EQ(tree.root(), c.updated);
        EXPECT_EQ(nodeDigestsHash(tree), c.nodes);
    }
}

class AuthenticatedMemoryTest : public ::testing::Test
{
  protected:
    AuthenticatedMemoryTest()
        : otp_(makeAesOtpEngine(9)),
          scheme_(makeScheme("deuce", *otp_)),
          memory_(*scheme_, 1024)
    {}

    CacheLine
    randomLine(Rng &rng)
    {
        CacheLine line;
        for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
            line.limb(i) = rng.next();
        }
        return line;
    }

    std::unique_ptr<OtpEngine> otp_;
    std::unique_ptr<EncryptionScheme> scheme_;
    AuthenticatedMemory memory_;
};

TEST_F(AuthenticatedMemoryTest, HonestTrafficAlwaysVerifies)
{
    Rng rng(2);
    CacheLine plain;
    for (int step = 0; step < 100; ++step) {
        uint64_t addr = rng.nextBounded(32);
        plain = randomLine(rng);
        memory_.write(addr, plain);
        CacheLine out;
        ASSERT_EQ(memory_.read(addr, out), ReadStatus::Ok);
        ASSERT_EQ(out, plain);
    }
}

TEST_F(AuthenticatedMemoryTest, DetectsCiphertextTampering)
{
    Rng rng(3);
    CacheLine plain = randomLine(rng);
    memory_.write(7, plain);
    memory_.tamperDataBit(7, 123);
    CacheLine out;
    EXPECT_EQ(memory_.read(7, out), ReadStatus::DataTampered);
}

TEST_F(AuthenticatedMemoryTest, DetectsReplayOfOldSnapshot)
{
    Rng rng(4);
    CacheLine old_plain = randomLine(rng);
    memory_.write(5, old_plain);
    LineSnapshot old_snap = memory_.snapshot(5);

    // The line moves on...
    CacheLine new_plain = randomLine(rng);
    memory_.write(5, new_plain);
    CacheLine out;
    ASSERT_EQ(memory_.read(5, out), ReadStatus::Ok);
    ASSERT_EQ(out, new_plain);

    // ...the attacker replays the internally-consistent old snapshot
    // (valid MAC, matching counter copy). Only the Merkle root can
    // tell -- and it does.
    memory_.replaySnapshot(5, old_snap);
    EXPECT_EQ(memory_.read(5, out), ReadStatus::CounterTampered);
}

TEST_F(AuthenticatedMemoryTest, FreshCounterReuseWouldBeDetected)
{
    // Pad-reuse setup: reset the tree's counter while keeping newer
    // data. Both the MAC (bound to the counter) and the tree notice.
    Rng rng(5);
    memory_.write(9, randomLine(rng));
    memory_.write(9, randomLine(rng));
    memory_.counterTree().tamperCounter(9, 0);
    CacheLine out;
    EXPECT_EQ(memory_.read(9, out), ReadStatus::CounterTampered);
}

TEST_F(AuthenticatedMemoryTest, WorksOverEverySchemeWithCounters)
{
    for (const char *id : {"encr", "encr-fnw", "deuce", "dyndeuce",
                           "ble", "ble-deuce"}) {
        auto scheme = makeScheme(id, *otp_);
        AuthenticatedMemory mem(*scheme, 64);
        Rng rng(6);
        CacheLine plain = randomLine(rng);
        mem.write(3, plain);
        CacheLine out;
        ASSERT_EQ(mem.read(3, out), ReadStatus::Ok) << id;
        ASSERT_EQ(out, plain) << id;
        mem.tamperDataBit(3, 9);
        EXPECT_EQ(mem.read(3, out), ReadStatus::DataTampered) << id;
    }
}

} // namespace
} // namespace deuce
