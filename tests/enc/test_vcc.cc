/**
 * @file
 * Tests for Virtual Coset Coding: configuration validation, virtual-
 * counter algebra, round trips across epochs and degenerate data, the
 * min-cost selection property against a brute-force shadow model (both
 * cost flavors), selection determinism per (line, counter, seed),
 * auxiliary-word re-randomization, counter edges near the top of the
 * virtual-counter range, batched-pad vs sequential equivalence, one
 * pad stream per read and install, the limb loops against a per-word
 * field() reference, the MLC cost's summation order, and the integer
 * lane selector against the pinned double loop (random words, exact
 * ties, and the off-grid energy matrix it refuses).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/vcc.hh"

namespace deuce
{
namespace
{

CacheLine
randomLine(Rng &rng)
{
    CacheLine line;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        line.limb(i) = rng.next();
    }
    return line;
}

/** Flip bits of one tracked word (guaranteed modification). */
CacheLine
withModifiedWord(const CacheLine &base, unsigned word,
                 unsigned word_bits, uint64_t delta)
{
    CacheLine out = base;
    unsigned lsb = word * word_bits;
    uint64_t mask = (word_bits == 64)
        ? ~uint64_t{0} : ((uint64_t{1} << word_bits) - 1);
    delta &= mask;
    if (delta == 0) {
        delta = 1;
    }
    out.setField(lsb, word_bits, out.field(lsb, word_bits) ^ delta);
    return out;
}

/** Shadow decode of the stored selection word (public API only). */
uint64_t
decodeSelection(const OtpEngine &otp, const Vcc &vcc, uint64_t addr,
                const StoredLineState &st)
{
    uint64_t aux =
        otp.padForLine(
               addr,
               vcc.virtualCounter(st.counter, vcc.config().candidates))
            .limbs()[0];
    unsigned bits = vcc.numWords() * vcc.selectionBits();
    uint64_t mask =
        bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    return (st.cosetBits ^ aux) & mask;
}

class VccTest : public ::testing::Test
{
  protected:
    VccTest() : otp_(std::make_unique<FastOtpEngine>(2025)) {}
    std::unique_ptr<OtpEngine> otp_;
};

TEST_F(VccTest, ConfigValidation)
{
    EXPECT_THROW(Vcc(*otp_, VccConfig{3, 32, 4}), FatalError);
    EXPECT_THROW(Vcc(*otp_, VccConfig{2, 0, 4}), FatalError);
    EXPECT_THROW(Vcc(*otp_, VccConfig{2, 33, 4}), FatalError);
    EXPECT_THROW(Vcc(*otp_, VccConfig{2, 32, 1}), FatalError);
    EXPECT_THROW(Vcc(*otp_, VccConfig{2, 32, 3}), FatalError);
    // 3N + 2 pads must fit the kMaxWritePadLines arena.
    EXPECT_THROW(Vcc(*otp_, VccConfig{2, 32, 8}), FatalError);
    // 64 one-byte words x 2 selection bits would need 128 aux bits.
    EXPECT_THROW(Vcc(*otp_, VccConfig{1, 32, 4}), FatalError);
    // ...but 64 words x 1 bit exactly fills the auxiliary word.
    EXPECT_NO_THROW(Vcc(*otp_, VccConfig{1, 32, 2}));
    EXPECT_NO_THROW(Vcc(*otp_, VccConfig{8, 2, 4}));
}

TEST_F(VccTest, NameAndTrackingBits)
{
    Vcc vcc(*otp_);
    EXPECT_EQ(vcc.name(), "VCC-2B-e32-n4");
    EXPECT_EQ(vcc.numWords(), 32u);
    EXPECT_EQ(vcc.wordBits(), 16u);
    EXPECT_EQ(vcc.selectionBits(), 2u);
    // 32 modified bits + 64 encrypted selection bits.
    EXPECT_EQ(vcc.trackingBitsPerLine(), 96u);

    VccConfig mlc;
    mlc.costModel = CellTech::MLC2;
    EXPECT_EQ(Vcc(*otp_, mlc).name(), "VCC-2B-e32-n4-mlc");
}

TEST_F(VccTest, VirtualCounterAlgebra)
{
    Vcc vcc(*otp_);
    EXPECT_EQ(vcc.trailingCounter(0), 0u);
    EXPECT_EQ(vcc.trailingCounter(31), 0u);
    EXPECT_EQ(vcc.trailingCounter(32), 32u);
    EXPECT_TRUE(vcc.isEpochStart(0));
    EXPECT_TRUE(vcc.isEpochStart(64));
    EXPECT_FALSE(vcc.isEpochStart(33));

    // The (counter, slot) -> virtual counter map must be injective:
    // every pad is bound to a nonce used at most once.
    std::set<uint64_t> seen;
    for (uint64_t c : {uint64_t{0}, uint64_t{1}, uint64_t{31},
                       uint64_t{32}, uint64_t{1000000},
                       (uint64_t{1} << 57) - 1, uint64_t{1} << 57}) {
        for (unsigned j = 0; j <= vcc.config().candidates; ++j) {
            EXPECT_TRUE(seen.insert(vcc.virtualCounter(c, j)).second)
                << "collision at counter " << c << " slot " << j;
        }
    }
}

TEST_F(VccTest, InstallReadsBack)
{
    Vcc vcc(*otp_);
    Rng rng(1);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    vcc.install(9, plain, state);
    EXPECT_EQ(vcc.read(9, state), plain);
    EXPECT_EQ(state.counter, 0u);
    EXPECT_EQ(state.modifiedBits, 0u);
    // Installed image is encrypted, not plaintext. Min-of-N selection
    // biases the distance below half the bits, but nowhere near zero.
    unsigned dist = hammingDistance(state.data, plain);
    EXPECT_GT(dist, 150u);
    EXPECT_LT(dist, 360u);
}

TEST_F(VccTest, RoundTripsThroughManyEpochs)
{
    Vcc vcc(*otp_, VccConfig{2, 8, 4});
    Rng rng(7);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    vcc.install(3, plain, state);
    for (unsigned i = 0; i < 40; ++i) {
        plain = withModifiedWord(plain, rng.next() % vcc.numWords(),
                                 vcc.wordBits(), rng.next());
        if (i % 3 == 0) {
            plain = randomLine(rng);
        }
        vcc.write(3, plain, state);
        ASSERT_EQ(vcc.read(3, state), plain) << "write " << i;
        EXPECT_EQ(state.counter, i + 1);
    }
}

TEST_F(VccTest, RoundTripsDegenerateData)
{
    for (CellTech cost : {CellTech::SLC, CellTech::MLC2}) {
        VccConfig cfg;
        cfg.costModel = cost;
        Vcc vcc(*otp_, cfg);
        CacheLine zeros;
        CacheLine ones;
        for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
            ones.limb(i) = ~uint64_t{0};
        }
        StoredLineState state;
        vcc.install(11, zeros, state);
        EXPECT_EQ(vcc.read(11, state), zeros);
        // zeros -> ones -> ones -> zeros, across an epoch boundary.
        for (unsigned i = 0; i < 40; ++i) {
            const CacheLine &next = (i % 4 < 2) ? ones : zeros;
            vcc.write(11, next, state);
            ASSERT_EQ(vcc.read(11, state), next) << "write " << i;
        }
    }
}

/**
 * The core coset property: every re-encrypted word's stored ciphertext
 * is the minimum-cost encoding among all N candidate pads, measured
 * against the word's pre-write cell image — verified by brute force
 * over the candidates the shadow model re-derives from the engine.
 */
void
checkMinimumCost(const OtpEngine &otp, const Vcc &vcc, CellTech cost)
{
    const unsigned n = vcc.config().candidates;
    const unsigned wb = vcc.wordBits();
    Rng rng(cost == CellTech::SLC ? 5 : 6);
    const uint64_t addr = 21;
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    vcc.install(addr, plain, state);

    for (unsigned i = 0; i < 48; ++i) {
        StoredLineState prev = state;
        plain = withModifiedWord(plain, rng.next() % vcc.numWords(),
                                 wb, rng.next());
        vcc.write(addr, plain, state);

        std::vector<CacheLine> cands(n);
        for (unsigned j = 0; j < n; ++j) {
            cands[j] = otp.padForLine(
                addr, vcc.virtualCounter(state.counter, j));
        }
        uint64_t sel = decodeSelection(otp, vcc, addr, state);
        const bool epoch = vcc.isEpochStart(state.counter);

        for (unsigned w = 0; w < vcc.numWords(); ++w) {
            // Words re-encrypted this write: all of them at an epoch
            // start, the modified set otherwise.
            if (!epoch && !((state.modifiedBits >> w) & 1)) {
                continue;
            }
            unsigned lsb = w * wb;
            uint64_t old_word = prev.data.field(lsb, wb);
            uint64_t plain_word = plain.field(lsb, wb);
            uint64_t stored = state.data.field(lsb, wb);
            unsigned j = static_cast<unsigned>(
                (sel >> (w * vcc.selectionBits())) & (n - 1));

            // The stored word is candidate j's encoding...
            ASSERT_EQ(stored,
                      plain_word ^ cands[j].field(lsb, wb))
                << "write " << i << " word " << w;
            // ...and no candidate encodes more cheaply.
            double got = vcc.wordCost(old_word, stored);
            for (unsigned k = 0; k < n; ++k) {
                uint64_t alt = plain_word ^ cands[k].field(lsb, wb);
                ASSERT_LE(got, vcc.wordCost(old_word, alt))
                    << "write " << i << " word " << w << " candidate "
                    << k;
            }
            // Ties break toward the lowest index.
            for (unsigned k = 0; k < j; ++k) {
                uint64_t alt = plain_word ^ cands[k].field(lsb, wb);
                ASSERT_LT(got, vcc.wordCost(old_word, alt))
                    << "tie not broken low at write " << i << " word "
                    << w;
            }
        }
    }
}

TEST_F(VccTest, SelectedCosetIsMinimumCostSlc)
{
    Vcc vcc(*otp_, VccConfig{2, 8, 4});
    checkMinimumCost(*otp_, vcc, CellTech::SLC);
}

TEST_F(VccTest, SelectedCosetIsMinimumCostMlc)
{
    VccConfig cfg{2, 8, 4};
    cfg.costModel = CellTech::MLC2;
    Vcc vcc(*otp_, cfg);
    checkMinimumCost(*otp_, vcc, CellTech::MLC2);
}

TEST_F(VccTest, SelectionDeterministicPerSeed)
{
    // Same (line, counter, seed): bit-identical stored state. A
    // different seed diverges (different pads, different selections).
    auto run = [](uint64_t seed) {
        FastOtpEngine otp(seed);
        Vcc vcc(otp);
        Rng rng(9);
        CacheLine plain = randomLine(rng);
        StoredLineState state;
        vcc.install(5, plain, state);
        for (unsigned i = 0; i < 20; ++i) {
            plain = withModifiedWord(plain, i % vcc.numWords(),
                                     vcc.wordBits(), rng.next());
            vcc.write(5, plain, state);
        }
        return state;
    };
    StoredLineState a = run(42);
    StoredLineState b = run(42);
    StoredLineState c = run(43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.data, c.data);
    EXPECT_NE(a.cosetBits, c.cosetBits);
}

TEST_F(VccTest, UnmodifiedWordsKeepCiphertextAndSelection)
{
    Vcc vcc(*otp_);
    Rng rng(13);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    vcc.install(4, plain, state);

    StoredLineState prev = state;
    uint64_t prev_sel = decodeSelection(*otp_, vcc, 4, prev);
    plain = withModifiedWord(plain, 5, vcc.wordBits(), 0x5aa5);
    WriteResult r = vcc.write(4, plain, state);
    uint64_t sel = decodeSelection(*otp_, vcc, 4, state);

    EXPECT_EQ(state.modifiedBits, uint64_t{1} << 5);
    EXPECT_EQ(r.modifiedDiff, uint64_t{1} << 5);
    const unsigned sb = vcc.selectionBits();
    for (unsigned w = 0; w < vcc.numWords(); ++w) {
        unsigned lsb = w * vcc.wordBits();
        if (w == 5) {
            continue;
        }
        // Untouched words: zero cell flips, selection value carried.
        EXPECT_EQ(state.data.field(lsb, vcc.wordBits()),
                  prev.data.field(lsb, vcc.wordBits()));
        EXPECT_EQ((sel >> (w * sb)) & ((1u << sb) - 1),
                  (prev_sel >> (w * sb)) & ((1u << sb) - 1));
    }
}

TEST_F(VccTest, AuxiliaryWordReRandomizedEveryWrite)
{
    Vcc vcc(*otp_);
    Rng rng(17);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    vcc.install(8, plain, state);

    // Rewriting identical data flips no data cells, yet the encrypted
    // selection word still changes: a fresh auxiliary pad every write.
    StoredLineState prev = state;
    WriteResult r = vcc.write(8, plain, state);
    EXPECT_EQ(r.dataDiff, CacheLine{});
    EXPECT_EQ(state.data, prev.data);
    EXPECT_NE(state.cosetBits, prev.cosetBits);
    EXPECT_EQ(r.cosetDiff, prev.cosetBits ^ state.cosetBits);
    // The auxiliary churn is charged as metadata flips.
    EXPECT_GE(r.metaFlips,
              static_cast<unsigned>(std::popcount(r.cosetDiff)));
    EXPECT_EQ(vcc.read(8, state), plain);
}

TEST_F(VccTest, EpochStartResetsTracking)
{
    Vcc vcc(*otp_, VccConfig{2, 8, 4});
    Rng rng(19);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    vcc.install(6, plain, state);
    for (unsigned i = 0; i < 7; ++i) {
        plain = withModifiedWord(plain, i, vcc.wordBits(), rng.next());
        vcc.write(6, plain, state);
    }
    EXPECT_NE(state.modifiedBits, 0u);
    // The 8th write advances to counter 8: epoch start, full
    // re-encryption, tracking reset.
    plain = withModifiedWord(plain, 9, vcc.wordBits(), rng.next());
    vcc.write(6, plain, state);
    EXPECT_EQ(state.counter, 8u);
    EXPECT_EQ(state.modifiedBits, 0u);
    EXPECT_EQ(vcc.read(6, state), plain);
}

TEST_F(VccTest, HighCounterEdge)
{
    // A line deep into its lifetime: counters near the top of the
    // safe virtual-counter range (virtualCounter multiplies by N+1,
    // so 2^57 leaves headroom in 64 bits). The state is forged
    // through the same public primitives install() uses.
    Vcc vcc(*otp_);
    const uint64_t addr = 15;
    const uint64_t big = uint64_t{1} << 57; // epoch-aligned
    ASSERT_TRUE(vcc.isEpochStart(big));

    Rng rng(23);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    state.counter = big;
    state.modifiedBits = 0;
    uint64_t sel = 0;
    for (unsigned w = 0; w < vcc.numWords(); ++w) {
        unsigned lsb = w * vcc.wordBits();
        uint64_t plain_word = plain.field(lsb, vcc.wordBits());
        unsigned best = 0;
        double best_cost = 0.0;
        for (unsigned j = 0; j < vcc.config().candidates; ++j) {
            uint64_t pad =
                otp_->padForLine(addr, vcc.virtualCounter(big, j))
                    .field(lsb, vcc.wordBits());
            double cost = vcc.wordCost(0, plain_word ^ pad);
            if (j == 0 || cost < best_cost) {
                best_cost = cost;
                best = j;
            }
        }
        state.data.setField(
            lsb, vcc.wordBits(),
            plain_word ^
                otp_->padForLine(addr, vcc.virtualCounter(big, best))
                    .field(lsb, vcc.wordBits()));
        sel |= static_cast<uint64_t>(best) << (w * vcc.selectionBits());
    }
    uint64_t aux =
        otp_->padForLine(
                addr, vcc.virtualCounter(big, vcc.config().candidates))
            .limbs()[0];
    state.cosetBits = sel ^ aux;

    EXPECT_EQ(vcc.read(addr, state), plain);
    for (unsigned i = 0; i < 35; ++i) {
        plain = withModifiedWord(plain, rng.next() % vcc.numWords(),
                                 vcc.wordBits(), rng.next());
        vcc.write(addr, plain, state);
        ASSERT_EQ(vcc.read(addr, state), plain) << "write " << i;
        ASSERT_EQ(state.counter, big + i + 1);
    }
}

TEST_F(VccTest, BatchedPadsMatchSequential)
{
    for (CellTech cost : {CellTech::SLC, CellTech::MLC2}) {
        VccConfig cfg{2, 8, 4};
        cfg.costModel = cost;
        Vcc vcc(*otp_, cfg);
        Rng rng(29);
        CacheLine plain = randomLine(rng);
        StoredLineState seq;
        StoredLineState bat;
        vcc.install(12, plain, seq);
        vcc.install(12, plain, bat);
        ASSERT_EQ(seq, bat);

        for (unsigned i = 0; i < 20; ++i) {
            plain = withModifiedWord(plain, rng.next() % vcc.numWords(),
                                     vcc.wordBits(), rng.next());

            LinePadRequest reqs[4 * kMaxWritePadLines];
            unsigned n = vcc.planWritePads(12, bat, reqs);
            ASSERT_EQ(n, 3 * cfg.candidates + 2);
            std::vector<AesBlock> blocks(4 * n);
            vcc.generatePads(reqs, blocks.data(), 4 * n);
            std::vector<CacheLine> pads(n);
            for (unsigned p = 0; p < n; ++p) {
                pads[p] = CacheLine::fromBytes(blocks[4 * p].data());
            }

            WriteResult rs = vcc.write(12, plain, seq);
            WriteResult rb = vcc.writeWithPads(12, plain, bat,
                                               pads.data());
            ASSERT_EQ(seq, bat) << "write " << i;
            ASSERT_EQ(rs.dataDiff, rb.dataDiff);
            ASSERT_EQ(rs.cosetDiff, rb.cosetDiff);
            ASSERT_EQ(rs.metaFlips, rb.metaFlips);
            ASSERT_EQ(rs.dataFlips, rb.dataFlips);
        }
    }
}

TEST_F(VccTest, MlcSelectionNotWorseThanHammingUnderMatrix)
{
    // Statistical sanity behind the bench gate: selecting under the
    // MLC transition matrix cannot cost more, in matrix terms, than
    // selecting by Hamming distance over the same writes and pads.
    VccConfig slc_cfg{2, 32, 4};
    VccConfig mlc_cfg{2, 32, 4};
    mlc_cfg.costModel = CellTech::MLC2;
    Vcc ham(*otp_, slc_cfg);
    Vcc mlc(*otp_, mlc_cfg);

    Rng rng(31);
    CacheLine plain = randomLine(rng);
    StoredLineState hs;
    StoredLineState ms;
    ham.install(14, plain, hs);
    mlc.install(14, plain, ms);

    double ham_cost = 0.0;
    double mlc_cost = 0.0;
    for (unsigned i = 0; i < 64; ++i) {
        CacheLine next = randomLine(rng);
        StoredLineState hp = hs;
        StoredLineState mp = ms;
        ham.write(14, next, hs);
        mlc.write(14, next, ms);
        for (unsigned w = 0; w < mlc.numWords(); ++w) {
            unsigned lsb = w * mlc.wordBits();
            ham_cost += mlc.wordCost(hp.data.field(lsb, 16),
                                     hs.data.field(lsb, 16));
            mlc_cost += mlc.wordCost(mp.data.field(lsb, 16),
                                     ms.data.field(lsb, 16));
        }
    }
    EXPECT_LT(mlc_cost, ham_cost);
}

TEST_F(VccTest, ReadAndInstallAreOnePadBatch)
{
    // A read fetches its 2N + 1 line pads (LCTR and TCTR candidates
    // plus the auxiliary pad) and an install its N + 1 as one pad
    // stream, on the default engine path and on the AES override.
    std::unique_ptr<OtpEngine> aes = makeAesOtpEngine(2025);
    for (OtpEngine *otp : {otp_.get(), aes.get()}) {
        for (unsigned n : {2u, 4u}) {
            Vcc vcc(*otp, VccConfig{2, 8, n});
            Rng rng(37 + n);
            StoredLineState state;

            uint64_t batches = otp->padBatches();
            uint64_t pads = otp->padsGenerated();
            vcc.install(3, randomLine(rng), state);
            EXPECT_EQ(otp->padBatches() - batches, 1u) << "n=" << n;
            EXPECT_EQ(otp->padsGenerated() - pads, 4u * (n + 1))
                << "n=" << n;

            vcc.write(3, randomLine(rng), state);
            batches = otp->padBatches();
            pads = otp->padsGenerated();
            vcc.read(3, state);
            EXPECT_EQ(otp->padBatches() - batches, 1u) << "n=" << n;
            EXPECT_EQ(otp->padsGenerated() - pads, 4u * (2 * n + 1))
                << "n=" << n;
        }
    }
}

TEST_F(VccTest, MlcWordCostKeepsCellOrder)
{
    // The MLC cost is a per-cell sequential double sum. Exact 8-cell
    // costs can round differently under another summation order, and
    // the selector's tie-breaks (and so every pinned digest) follow
    // the rounding: these two equal-in-exact-arithmetic costs must
    // stay distinct doubles.
    VccConfig cfg{2, 32, 4};
    cfg.costModel = CellTech::MLC2;
    Vcc vcc(*otp_, cfg);
    EXPECT_EQ(std::bit_cast<uint64_t>(vcc.wordCost(0x7eed, 0x8d88)),
              std::bit_cast<uint64_t>(457.59999999999997));
    EXPECT_EQ(std::bit_cast<uint64_t>(vcc.wordCost(0xfe17, 0xb940)),
              std::bit_cast<uint64_t>(457.6));
    EXPECT_NE(vcc.wordCost(0x7eed, 0x8d88), vcc.wordCost(0xfe17, 0xb940));
}

/**
 * The pinned double loop: the candidate the integer selector must
 * reproduce for the word at bit @p lsb — strict < over wordCost(), so
 * equal doubles keep the lowest index.
 */
unsigned
doubleLoopChoice(const Vcc &vcc, uint64_t old_word, uint64_t plain_word,
                 const CacheLine *cands, unsigned lsb)
{
    const unsigned wb = vcc.wordBits();
    unsigned best_j = 0;
    double best_cost = 0.0;
    for (unsigned j = 0; j < vcc.config().candidates; ++j) {
        double cost =
            vcc.wordCost(old_word, plain_word ^ cands[j].field(lsb, wb));
        if (j == 0 || cost < best_cost) {
            best_cost = cost;
            best_j = j;
        }
    }
    return best_j;
}

/**
 * Write @p plain over the cell image @p old with the forged write pads
 * @p pads, at the counter that starts an epoch, so every word takes a
 * fresh selection. Checks each word's stored candidate index and
 * ciphertext against doubleLoopChoice(), and counts the words whose
 * minimum integer cost (bit flips, or 0.1 pJ units) is shared.
 */
void
checkEpochSelection(const Vcc &vcc, const CacheLine &old,
                    const CacheLine &plain,
                    const std::vector<CacheLine> &pads, uint64_t &ties)
{
    const unsigned n = vcc.config().candidates;
    const unsigned wb = vcc.wordBits();
    const unsigned sb = vcc.selectionBits();
    StoredLineState st;
    st.data = old;
    st.counter = vcc.config().epochInterval - 1;
    vcc.writeWithPads(9, plain, st, pads.data());

    const CacheLine *cands = pads.data() + 2 * n + 1;
    const uint64_t aux = pads[3 * n + 1].limb(0);
    const unsigned bits = vcc.numWords() * sb;
    const uint64_t sel = (st.cosetBits ^ aux) &
        (bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1);
    for (unsigned w = 0; w < vcc.numWords(); ++w) {
        const unsigned lsb = w * wb;
        const uint64_t old_word = old.field(lsb, wb);
        const uint64_t plain_word = plain.field(lsb, wb);
        const unsigned want =
            doubleLoopChoice(vcc, old_word, plain_word, cands, lsb);
        const unsigned got = static_cast<unsigned>(
            (sel >> (w * sb)) & ((uint64_t{1} << sb) - 1));
        ASSERT_EQ(got, want) << "word " << w;
        ASSERT_EQ(st.data.field(lsb, wb),
                  plain_word ^ cands[want].field(lsb, wb))
            << "word " << w;

        long best = -1;
        unsigned at_best = 0;
        for (unsigned j = 0; j < n; ++j) {
            long units = std::lround(
                vcc.wordCost(old_word, plain_word ^ cands[j].field(lsb, wb)) *
                (vcc.config().costModel == CellTech::MLC2 ? 10.0 : 1.0));
            if (best < 0 || units < best) {
                best = units;
                at_best = 1;
            } else if (units == best) {
                ++at_best;
            }
        }
        ties += at_best > 1;
    }
}

TEST_F(VccTest, IntegerSelectionMatchesDoubleLoop)
{
    // Over a million seeded (old, plaintext, N pads) words across every
    // word size x N in {2, 4} x SLC/MLC. Every 4th line repeats a
    // candidate pad (two candidates cost the same in every word) and
    // every 8th already stores one candidate's ciphertext (zero-cost
    // words).
    uint64_t words = 0;
    unsigned configs = 0;
    for (unsigned word_bytes : {1u, 2u, 4u, 8u}) {
        for (unsigned n : {2u, 4u}) {
            if ((64 / word_bytes) * std::countr_zero(n) > 64) {
                continue;
            }
            for (CellTech cost : {CellTech::SLC, CellTech::MLC2}) {
                VccConfig cfg{word_bytes, 32, n};
                cfg.costModel = cost;
                Vcc vcc(*otp_, cfg);
                SCOPED_TRACE(vcc.name());
                ++configs;
                Rng rng(0x5e1ec7 + word_bytes * 100 + n * 10 +
                        (cost == CellTech::MLC2));
                uint64_t ties = 0;
                const unsigned lines = 80000 / vcc.numWords();
                for (unsigned i = 0; i < lines; ++i) {
                    std::vector<CacheLine> pads(3 * n + 2);
                    for (CacheLine &pad : pads) {
                        pad = randomLine(rng);
                    }
                    CacheLine *cands = pads.data() + 2 * n + 1;
                    if (i % 4 == 1) {
                        cands[n - 1] = cands[rng.nextBounded(n - 1)];
                    }
                    const CacheLine plain = randomLine(rng);
                    const CacheLine old = i % 8 == 3
                        ? plain ^ cands[rng.nextBounded(n)]
                        : randomLine(rng);
                    ASSERT_NO_FATAL_FAILURE(
                        checkEpochSelection(vcc, old, plain, pads, ties))
                        << "line " << i;
                }
                words += uint64_t{lines} * vcc.numWords();
                // A repeated pad ties wherever it is the cheapest, so
                // at least 1 word in 20 reaches the tie-breaker.
                EXPECT_GT(ties, uint64_t{lines} * vcc.numWords() / 20);
            }
        }
    }
    EXPECT_EQ(configs, 14u);
    EXPECT_GE(words, 1000000u);
}

TEST_F(VccTest, IntegerTieFallsBackToPinnedDoubleSum)
{
    // DESIGN.md §13's pair as two candidates of one word: over the
    // stored word 0x7eed, ciphertexts 0x8d88 and 0x5442 both cost
    // 4576 tenths of a pJ, but their cell-order double sums are
    // 457.59999999999997 and 457.6. Costlier candidates fill N = 4.
    VccConfig cfg{2, 32, 2};
    cfg.costModel = CellTech::MLC2;
    const uint64_t kOld = 0x7eed;
    const uint64_t kLow = 0x8d88;  // 457.59999999999997
    const uint64_t kHigh = 0x5442; // 457.6
    const uint64_t kDear = 0x6666; // 500
    {
        Vcc vcc(*otp_, cfg);
        ASSERT_EQ(std::bit_cast<uint64_t>(vcc.wordCost(kOld, kLow)),
                  std::bit_cast<uint64_t>(457.59999999999997));
        ASSERT_EQ(std::bit_cast<uint64_t>(vcc.wordCost(kOld, kHigh)),
                  std::bit_cast<uint64_t>(457.6));
        ASSERT_GT(vcc.wordCost(kOld, kDear), 457.6);
    }

    struct Case
    {
        unsigned n;
        std::vector<uint64_t> ciphers;
        unsigned want;
    };
    const Case cases[] = {
        {2, {kLow, kHigh}, 0},
        {2, {kHigh, kLow}, 1},
        {2, {kHigh, kHigh}, 0}, // equal doubles: lowest index
        {4, {kDear, kHigh, kLow, kDear}, 2},
        {4, {kDear, kLow, kHigh, kLow}, 1},
    };
    Rng rng(77);
    for (const Case &c : cases) {
        cfg.candidates = c.n;
        Vcc vcc(*otp_, cfg);
        SCOPED_TRACE(testing::Message() << "n=" << c.n << " want " << c.want);
        std::vector<CacheLine> pads(3 * c.n + 2);
        for (CacheLine &pad : pads) {
            pad = randomLine(rng);
        }
        CacheLine old = randomLine(rng);
        const CacheLine plain = randomLine(rng);
        // Word 5: the directed tie. Every other word is random.
        old.setField(80, 16, kOld);
        for (unsigned j = 0; j < c.n; ++j) {
            pads[2 * c.n + 1 + j].setField(
                80, 16, plain.field(80, 16) ^ c.ciphers[j]);
        }
        uint64_t ties = 0;
        ASSERT_NO_FATAL_FAILURE(
            checkEpochSelection(vcc, old, plain, pads, ties));
        EXPECT_GE(ties, 1u);

        StoredLineState st;
        st.data = old;
        st.counter = 31;
        vcc.writeWithPads(9, plain, st, pads.data());
        EXPECT_EQ(st.data.field(80, 16), c.ciphers[c.want]);
    }
}

TEST_F(VccTest, OffGridEnergyMatrixIsFatal)
{
    // The integer selector needs every MLC energy on the 0.1 pJ grid,
    // one cost per target level and levels 1 and 2 alike; deuce_fatal
    // (a FatalError) otherwise. SLC ignores the matrix.
    auto with = [](auto edit) {
        VccConfig cfg;
        cfg.costModel = CellTech::MLC2;
        edit(cfg.mlc2);
        return cfg;
    };
    EXPECT_NO_THROW(Vcc(*otp_, with([](Mlc2Model &) {})));
    EXPECT_THROW(Vcc(*otp_, with([](Mlc2Model &m) {
                     m.energyPj[0][1] = m.energyPj[2][1] =
                         m.energyPj[3][1] = 100.05;
                 })),
                 FatalError);
    EXPECT_THROW(Vcc(*otp_, with([](Mlc2Model &m) {
                     m.energyPj[2][0] = 19.3;
                 })),
                 FatalError);
    EXPECT_THROW(Vcc(*otp_, with([](Mlc2Model &m) {
                     for (unsigned from : {0u, 1u, 3u}) {
                         m.energyPj[from][2] = 90.0;
                     }
                 })),
                 FatalError);
    EXPECT_THROW(Vcc(*otp_, with([](Mlc2Model &m) {
                     m.energyPj[1][1] = 0.1;
                 })),
                 FatalError);
    EXPECT_THROW(Vcc(*otp_, with([](Mlc2Model &m) {
                     for (unsigned from : {0u, 1u, 2u}) {
                         m.energyPj[from][3] = 409.6;
                     }
                 })),
                 FatalError);
    VccConfig slc;
    slc.mlc2.energyPj[0][1] = 100.05;
    EXPECT_NO_THROW(Vcc(*otp_, slc));
}

/**
 * Reference VCC built from per-word field()/setField() loops over
 * pads fetched one line at a time: the form the scheme's limb loops
 * and pooled pad streams replaced, kept to check them against.
 */
class ReferenceVcc
{
  public:
    ReferenceVcc(const OtpEngine &otp, const Vcc &vcc)
        : otp_(otp), vcc_(vcc), n_(vcc.config().candidates),
          wb_(vcc.wordBits()), sb_(vcc.selectionBits())
    {
        unsigned bits = vcc.numWords() * sb_;
        auxMask_ = bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    }

    void
    install(uint64_t addr, const CacheLine &plaintext,
            StoredLineState &state) const
    {
        state = StoredLineState{};
        std::vector<CacheLine> cands = candidates(addr, 0);
        uint64_t modified = 0;
        uint64_t sel = 0;
        encryptStep(plaintext, plaintext, CacheLine{}, 0, 0, 0, cands,
                    state.data, modified, sel);
        state.modifiedBits = modified;
        state.cosetBits = (sel ^ aux(addr, 0)) & auxMask_;
    }

    CacheLine
    read(uint64_t addr, const StoredLineState &state) const
    {
        uint64_t sel = (state.cosetBits ^ aux(addr, state.counter)) &
                       auxMask_;
        return decrypt(state.data, state.modifiedBits, sel,
                       candidates(addr, state.counter),
                       candidates(addr,
                                  vcc_.trailingCounter(state.counter)));
    }

    void
    write(uint64_t addr, const CacheLine &plaintext,
          StoredLineState &state) const
    {
        uint64_t old_sel = (state.cosetBits ^ aux(addr, state.counter)) &
                           auxMask_;
        CacheLine cur_plain = read(addr, state);
        uint64_t new_counter = state.counter + 1;
        CacheLine cipher;
        uint64_t modified = 0;
        uint64_t sel = 0;
        encryptStep(plaintext, cur_plain, state.data, new_counter,
                    state.modifiedBits, old_sel,
                    candidates(addr, new_counter), cipher, modified, sel);
        state.counter = new_counter;
        state.modifiedBits = modified;
        state.data = cipher;
        state.cosetBits = (sel ^ aux(addr, new_counter)) & auxMask_;
    }

  private:
    std::vector<CacheLine>
    candidates(uint64_t addr, uint64_t counter) const
    {
        std::vector<CacheLine> cands(n_);
        for (unsigned j = 0; j < n_; ++j) {
            cands[j] = otp_.padForLine(addr, vcc_.virtualCounter(counter, j));
        }
        return cands;
    }

    uint64_t
    aux(uint64_t addr, uint64_t counter) const
    {
        return otp_.padForLine(addr, vcc_.virtualCounter(counter, n_))
            .limbs()[0];
    }

    unsigned
    selectCandidate(uint64_t old_word, uint64_t plain_word,
                    const std::vector<CacheLine> &cands,
                    unsigned lsb) const
    {
        unsigned best_j = 0;
        double best_cost = 0.0;
        for (unsigned j = 0; j < n_; ++j) {
            uint64_t cipher_word = plain_word ^ cands[j].field(lsb, wb_);
            double cost = vcc_.wordCost(old_word, cipher_word);
            if (j == 0 || cost < best_cost) {
                best_cost = cost;
                best_j = j;
            }
        }
        return best_j;
    }

    void
    encryptStep(const CacheLine &plaintext, const CacheLine &cur_plain,
                const CacheLine &old_stored, uint64_t new_counter,
                uint64_t old_modified, uint64_t old_sel,
                const std::vector<CacheLine> &new_cands,
                CacheLine &cipher_out, uint64_t &modified_out,
                uint64_t &sel_out) const
    {
        const uint64_t sel_mask = (uint64_t{1} << sb_) - 1;
        const bool epoch = vcc_.isEpochStart(new_counter);
        uint64_t modified = old_modified;
        if (!epoch) {
            for (unsigned w = 0; w < vcc_.numWords(); ++w) {
                unsigned lsb = w * wb_;
                if (plaintext.field(lsb, wb_) != cur_plain.field(lsb, wb_)) {
                    modified |= uint64_t{1} << w;
                }
            }
        }
        CacheLine cipher;
        uint64_t sel = 0;
        for (unsigned w = 0; w < vcc_.numWords(); ++w) {
            unsigned lsb = w * wb_;
            if (epoch || ((modified >> w) & 1)) {
                uint64_t plain_word = plaintext.field(lsb, wb_);
                unsigned j = selectCandidate(old_stored.field(lsb, wb_),
                                             plain_word, new_cands, lsb);
                cipher.setField(lsb, wb_,
                                plain_word ^ new_cands[j].field(lsb, wb_));
                sel |= static_cast<uint64_t>(j) << (w * sb_);
            } else {
                cipher.setField(lsb, wb_, old_stored.field(lsb, wb_));
                sel |= ((old_sel >> (w * sb_)) & sel_mask) << (w * sb_);
            }
        }
        cipher_out = cipher;
        modified_out = epoch ? 0 : modified;
        sel_out = sel;
    }

    CacheLine
    decrypt(const CacheLine &cipher, uint64_t modified, uint64_t sel,
            const std::vector<CacheLine> &lctr_cands,
            const std::vector<CacheLine> &tctr_cands) const
    {
        const uint64_t sel_mask = (uint64_t{1} << sb_) - 1;
        CacheLine plain;
        for (unsigned w = 0; w < vcc_.numWords(); ++w) {
            unsigned lsb = w * wb_;
            unsigned j = static_cast<unsigned>((sel >> (w * sb_)) &
                                               sel_mask);
            const CacheLine &pad =
                ((modified >> w) & 1) ? lctr_cands[j] : tctr_cands[j];
            plain.setField(lsb, wb_,
                           cipher.field(lsb, wb_) ^ pad.field(lsb, wb_));
        }
        return plain;
    }

    const OtpEngine &otp_;
    const Vcc &vcc_;
    unsigned n_;
    unsigned wb_;
    unsigned sb_;
    uint64_t auxMask_;
};

TEST_F(VccTest, LimbLoopsMatchFieldReference)
{
    // Every legal word size x candidate count x cost model, through
    // installs, short epochs (every 4th write re-encrypts the whole
    // line), partial, full and identical rewrites, and forged states
    // with arbitrary counters, tracking bits and selection words.
    unsigned configs = 0;
    for (unsigned word_bytes : {1u, 2u, 4u, 8u}) {
        for (unsigned n : {2u, 4u}) {
            if ((64 / word_bytes) * std::countr_zero(n) > 64) {
                continue; // selection bits exceed the auxiliary word
            }
            for (CellTech cost : {CellTech::SLC, CellTech::MLC2}) {
                VccConfig cfg{word_bytes, 4, n};
                cfg.costModel = cost;
                Vcc vcc(*otp_, cfg);
                ReferenceVcc ref(*otp_, vcc);
                ++configs;
                SCOPED_TRACE(vcc.name());
                Rng rng(word_bytes * 1000 + n * 10 +
                        (cost == CellTech::MLC2));
                const uint64_t addr = 40 + word_bytes;

                CacheLine plain = randomLine(rng);
                StoredLineState got;
                StoredLineState want;
                vcc.install(addr, plain, got);
                ref.install(addr, plain, want);
                ASSERT_EQ(got, want);
                for (unsigned i = 0; i < 24; ++i) {
                    switch (i % 3) {
                      case 0:
                        plain = withModifiedWord(
                            plain, rng.next() % vcc.numWords(),
                            vcc.wordBits(), rng.next());
                        break;
                      case 1:
                        plain = randomLine(rng);
                        break;
                      default:
                        break; // identical rewrite
                    }
                    vcc.write(addr, plain, got);
                    ref.write(addr, plain, want);
                    ASSERT_EQ(got, want) << "write " << i;
                    ASSERT_EQ(vcc.read(addr, got), plain) << "write " << i;
                }

                for (unsigned i = 0; i < 16; ++i) {
                    StoredLineState forged;
                    forged.data = randomLine(rng);
                    forged.counter = rng.next() >> 8;
                    forged.modifiedBits = rng.next();
                    forged.cosetBits = rng.next();
                    ASSERT_EQ(vcc.read(addr, forged),
                              ref.read(addr, forged))
                        << "forged " << i;
                    CacheLine next = (i & 1)
                        ? randomLine(rng)
                        : withModifiedWord(ref.read(addr, forged),
                                           rng.next() % vcc.numWords(),
                                           vcc.wordBits(), rng.next());
                    StoredLineState a = forged;
                    StoredLineState b = forged;
                    vcc.write(addr, next, a);
                    ref.write(addr, next, b);
                    ASSERT_EQ(a, b) << "forged " << i;
                }
            }
        }
    }
    EXPECT_EQ(configs, 14u);
}

/** Round trips across the (wordBytes, candidates) grid. */
class VccGridTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(VccGridTest, RoundTripsAcrossGrid)
{
    auto [word_bytes, candidates] = GetParam();
    FastOtpEngine otp(77);
    Vcc vcc(otp, VccConfig{word_bytes, 8, candidates});
    Rng rng(word_bytes * 100 + candidates);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    vcc.install(2, plain, state);
    for (unsigned i = 0; i < 24; ++i) {
        plain = withModifiedWord(plain, rng.next() % vcc.numWords(),
                                 vcc.wordBits(), rng.next());
        vcc.write(2, plain, state);
        ASSERT_EQ(vcc.read(2, state), plain)
            << "w=" << word_bytes << " n=" << candidates << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VccGridTest,
    ::testing::Values(std::pair<unsigned, unsigned>{1, 2},
                      std::pair<unsigned, unsigned>{2, 2},
                      std::pair<unsigned, unsigned>{2, 4},
                      std::pair<unsigned, unsigned>{4, 4},
                      std::pair<unsigned, unsigned>{8, 4}));

} // namespace
} // namespace deuce
