/**
 * @file
 * Tests for DEUCE: round-trip correctness across epochs, modified-bit
 * semantics, virtual-counter algebra, zero-cost unmodified words, the
 * OTP pad-uniqueness security invariant, and parameterised word-size /
 * epoch sweeps.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/deuce.hh"
#include "enc/scheme_factory.hh"
#include "serve/tenant_scheme.hh"

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

/** Flip one word of the line (guaranteed modification). */
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

class DeuceTest : public ::testing::Test
{
  protected:
    DeuceTest() : otp_(makeAesOtpEngine(2024)) {}
    std::unique_ptr<OtpEngine> otp_;
};

TEST_F(DeuceTest, ConfigValidation)
{
    EXPECT_THROW(Deuce(*otp_, DeuceConfig{3, 32, false, 16}),
                 FatalError);
    EXPECT_THROW(Deuce(*otp_, DeuceConfig{2, 0, false, 16}),
                 FatalError);
    EXPECT_THROW(Deuce(*otp_, DeuceConfig{2, 33, false, 16}),
                 FatalError);
    EXPECT_NO_THROW(Deuce(*otp_, DeuceConfig{8, 2, false, 16}));
}

TEST_F(DeuceTest, VirtualCounterAlgebra)
{
    Deuce deuce(*otp_, DeuceConfig{2, 32, false, 16});
    EXPECT_EQ(deuce.trailingCounter(0), 0u);
    EXPECT_EQ(deuce.trailingCounter(31), 0u);
    EXPECT_EQ(deuce.trailingCounter(32), 32u);
    EXPECT_EQ(deuce.trailingCounter(63), 32u);
    EXPECT_TRUE(deuce.isEpochStart(0));
    EXPECT_TRUE(deuce.isEpochStart(64));
    EXPECT_FALSE(deuce.isEpochStart(33));
    EXPECT_EQ(deuce.numWords(), 32u);
    EXPECT_EQ(deuce.wordBits(), 16u);
}

TEST_F(DeuceTest, InstallReadsBack)
{
    Deuce deuce(*otp_);
    Rng rng(1);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(7, plain, state);
    EXPECT_EQ(deuce.read(7, state), plain);
    EXPECT_EQ(state.counter, 0u);
    EXPECT_EQ(state.modifiedBits, 0u);
    // Installed image is encrypted.
    EXPECT_NEAR(hammingDistance(state.data, plain), 256u, 60u);
}

TEST_F(DeuceTest, RoundTripsThroughManyEpochs)
{
    Deuce deuce(*otp_, DeuceConfig{2, 8, false, 16});
    Rng rng(2);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(42, plain, state);
    for (int step = 0; step < 100; ++step) {
        plain = withModifiedWord(plain, rng.nextBounded(32) % 32, 16,
                                 rng.next());
        deuce.write(42, plain, state);
        ASSERT_EQ(deuce.read(42, state), plain) << "step " << step;
    }
}

TEST_F(DeuceTest, UnmodifiedWordsCostZeroDataFlips)
{
    Deuce deuce(*otp_);
    Rng rng(3);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(1, plain, state);

    // Mid-epoch write modifying exactly one word: only that word's 16
    // ciphertext bits may flip.
    CacheLine next = withModifiedWord(plain, 5, 16, 0x3);
    WriteResult r = deuce.write(1, next, state);
    EXPECT_LE(r.dataFlips, 16u);
    EXPECT_GE(r.dataFlips, 1u);
    // Exactly one modified bit set, plus the counter bump.
    EXPECT_EQ(state.modifiedBits, uint64_t{1} << 5);
    EXPECT_EQ(r.modifiedDiff, uint64_t{1} << 5);
    // All flips outside word 5's bit range must be zero.
    for (unsigned w = 0; w < 32; ++w) {
        if (w == 5) {
            continue;
        }
        EXPECT_EQ(hammingDistance(r.dataDiff, CacheLine{}, w * 16, 16),
                  0u);
    }
}

TEST_F(DeuceTest, ModifiedSetAccumulatesWithinEpoch)
{
    Deuce deuce(*otp_);
    Rng rng(4);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(2, plain, state);

    plain = withModifiedWord(plain, 1, 16, 0xff);
    deuce.write(2, plain, state);
    EXPECT_EQ(state.modifiedBits, 0b10u);

    plain = withModifiedWord(plain, 3, 16, 0xff);
    WriteResult r = deuce.write(2, plain, state);
    EXPECT_EQ(state.modifiedBits, 0b1010u);
    // Word 1 is re-encrypted again even though this write did not
    // touch it (Figure 6): its ciphertext must change.
    EXPECT_GT(hammingDistance(r.dataDiff, CacheLine{}, 16, 16), 0u);
}

TEST_F(DeuceTest, EpochStartReencryptsEverythingAndResetsBits)
{
    const unsigned epoch = 4;
    Deuce deuce(*otp_, DeuceConfig{2, epoch, false, 16});
    Rng rng(5);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(3, plain, state);

    for (unsigned i = 1; i < epoch; ++i) {
        plain = withModifiedWord(plain, 0, 16, rng.next());
        deuce.write(3, plain, state);
        EXPECT_EQ(state.modifiedBits, 0b1u);
    }
    // Write number `epoch` starts a new epoch.
    plain = withModifiedWord(plain, 0, 16, rng.next());
    WriteResult r = deuce.write(3, plain, state);
    EXPECT_EQ(state.counter, epoch);
    EXPECT_EQ(state.modifiedBits, 0u);
    // Full re-encryption flips about half of all bits.
    EXPECT_NEAR(r.dataFlips, 256u, 64u);
    EXPECT_EQ(deuce.read(3, state), plain);
}

TEST_F(DeuceTest, RepeatedWritesToSameWordAreCheap)
{
    Deuce deuce(*otp_);
    Rng rng(6);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(4, plain, state);

    double total = 0.0;
    int counted = 0;
    for (int step = 1; step < 200; ++step) {
        plain = withModifiedWord(plain, 9, 16, rng.next());
        WriteResult r = deuce.write(4, plain, state);
        if (!deuce.isEpochStart(state.counter)) {
            total += r.dataFlips;
            ++counted;
        }
        ASSERT_EQ(deuce.read(4, state), plain);
    }
    // Mid-epoch cost is ~8 bits (half of one word), never near the
    // 256 of full-line encryption.
    EXPECT_NEAR(total / counted, 8.0, 3.0);
}

TEST_F(DeuceTest, FnwCompositionRoundTrips)
{
    DeuceConfig cfg;
    cfg.withFnw = true;
    Deuce deuce(*otp_, cfg);
    EXPECT_EQ(deuce.trackingBitsPerLine(), 64u);

    Rng rng(7);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(5, plain, state);
    ASSERT_EQ(deuce.read(5, state), plain);
    for (int step = 0; step < 80; ++step) {
        for (int w = 0; w < 3; ++w) {
            plain = withModifiedWord(plain, rng.nextBounded(32) % 32,
                                     16, rng.next());
        }
        deuce.write(5, plain, state);
        ASSERT_EQ(deuce.read(5, state), plain) << "step " << step;
    }
}

TEST_F(DeuceTest, FnwCompositionNeverCostsMoreOnAverage)
{
    Deuce plain_deuce(*otp_);
    DeuceConfig cfg;
    cfg.withFnw = true;
    Deuce fnw_deuce(*otp_, cfg);

    Rng rng(8);
    CacheLine data = randomLine(rng);
    StoredLineState s1, s2;
    plain_deuce.install(6, data, s1);
    fnw_deuce.install(6, data, s2);

    double flips1 = 0.0, flips2 = 0.0;
    for (int step = 0; step < 300; ++step) {
        for (int w = 0; w < 4; ++w) {
            data = withModifiedWord(data, rng.nextBounded(32) % 32, 16,
                                    rng.next());
        }
        flips1 += plain_deuce.write(6, data, s1).totalFlips();
        flips2 += fnw_deuce.write(6, data, s2).totalFlips();
    }
    EXPECT_LT(flips2, flips1);
}

/**
 * Security invariant: a (counter, word) pad slice never encrypts two
 * different plaintext word values. We reconstruct the pad slice every
 * word is currently encrypted under and check that any given
 * (counter value, word) pair is only ever associated with one
 * ciphertext actually written to the cells.
 */
TEST_F(DeuceTest, PadUniquenessInvariant)
{
    const unsigned epoch = 8;
    Deuce deuce(*otp_, DeuceConfig{2, epoch, false, 16});
    Rng rng(9);
    const uint64_t addr = 77;

    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(addr, plain, state);

    // (counterUsedForWord, word) -> ciphertext stored under that pad.
    std::map<std::pair<uint64_t, unsigned>, uint64_t> written;
    auto record = [&](const StoredLineState &st) {
        for (unsigned w = 0; w < 32; ++w) {
            uint64_t ctr_used = (st.modifiedBits >> w) & 1
                ? st.counter : deuce.trailingCounter(st.counter);
            uint64_t cipher_word = st.data.field(w * 16, 16);
            auto key = std::make_pair(ctr_used, w);
            auto it = written.find(key);
            if (it == written.end()) {
                written.emplace(key, cipher_word);
            } else {
                // Re-observing the same pad must mean the identical
                // ciphertext: the cell content was not rewritten
                // under a reused pad.
                ASSERT_EQ(it->second, cipher_word)
                    << "pad reuse at ctr=" << key.first
                    << " word=" << key.second;
            }
        }
    };

    record(state);
    for (int step = 0; step < 300; ++step) {
        unsigned mods = 1 + static_cast<unsigned>(rng.nextBounded(4));
        for (unsigned m = 0; m < mods; ++m) {
            plain = withModifiedWord(plain, rng.nextBounded(32) % 32,
                                     16, rng.next());
        }
        deuce.write(addr, plain, state);
        record(state);
    }
}

/** Parameterised over (word bytes, epoch): behaviour invariants. */
class DeuceParamTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
  protected:
    DeuceParamTest() : otp_(makeAesOtpEngine(31337)) {}
    std::unique_ptr<OtpEngine> otp_;
};

TEST_P(DeuceParamTest, RoundTripAndTrackingInvariants)
{
    auto [word_bytes, epoch] = GetParam();
    Deuce deuce(*otp_, DeuceConfig{word_bytes, epoch, false, 16});
    EXPECT_EQ(deuce.trackingBitsPerLine(), 512u / (word_bytes * 8));

    Rng rng(word_bytes * 1000 + epoch);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    deuce.install(11, plain, state);

    for (int step = 1; step <= 3 * static_cast<int>(epoch); ++step) {
        plain = withModifiedWord(
            plain,
            static_cast<unsigned>(rng.nextBounded(deuce.numWords())),
            deuce.wordBits(), rng.next());
        WriteResult r = deuce.write(11, plain, state);
        ASSERT_EQ(deuce.read(11, state), plain);

        if (deuce.isEpochStart(state.counter)) {
            EXPECT_EQ(state.modifiedBits, 0u);
        } else {
            EXPECT_NE(state.modifiedBits, 0u);
            // Data flips confined to words marked modified.
            for (unsigned w = 0; w < deuce.numWords(); ++w) {
                if (!((state.modifiedBits >> w) & 1)) {
                    EXPECT_EQ(hammingDistance(r.dataDiff, CacheLine{},
                                              w * deuce.wordBits(),
                                              deuce.wordBits()),
                              0u);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WordSizeEpochGrid, DeuceParamTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(4u, 8u, 32u)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, unsigned>>
           &info) {
        return "w" + std::to_string(std::get<0>(info.param)) + "e" +
               std::to_string(std::get<1>(info.param));
    });

TEST(DeucePadPlan, OneWritePlansEachPadOnce)
{
    // Mid-epoch (neither c nor c+1 starts an epoch) TCTR(c+1) equals
    // TCTR(c), and DynDEUCE's FNW candidate re-encrypts under LCTR(c+1):
    // a write that plans either pad twice spends AES work on a pad it
    // already holds.
    FastOtpEngine otp(7);
    for (const char *id : {"deuce", "deuce-fnw", "dyndeuce"}) {
        std::unique_ptr<EncryptionScheme> scheme = makeScheme(id, otp);
        for (uint64_t c : {uint64_t{5}, uint64_t{33}, uint64_t{94}}) {
            SCOPED_TRACE(std::string(id) + " counter=" +
                         std::to_string(c));
            StoredLineState state;
            scheme->install(9, CacheLine{}, state);
            state.counter = c;
            state.modifiedBits = 0x5;

            LinePadRequest reqs[4 * kMaxWritePadLines];
            unsigned n = scheme->planWritePads(9, state, reqs);
            ASSERT_GT(n, 0u);
            std::set<std::tuple<uint64_t, uint64_t, unsigned>> seen;
            for (unsigned i = 0; i < 4 * n; ++i) {
                EXPECT_TRUE(seen.emplace(reqs[i].lineAddr,
                                         reqs[i].counter, reqs[i].block)
                                .second)
                    << "pad (" << reqs[i].lineAddr << ", "
                    << reqs[i].counter << ", " << reqs[i].block
                    << ") planned twice";
            }
        }
    }
}

/** Counts pad calls by entry point, forwarding to an inner engine. */
class CallCountingOtp final : public OtpEngine
{
  public:
    explicit CallCountingOtp(const OtpEngine &inner) : inner_(inner) {}

    AesBlock
    padForBlock(uint64_t line_addr, uint64_t counter,
                unsigned block) const override
    {
        ++otherCalls;
        return inner_.padForBlock(line_addr, counter, block);
    }

    void
    padForBlocks(uint64_t line_addr, const PadRequest *requests,
                 AesBlock *pads, unsigned n) const override
    {
        ++otherCalls;
        inner_.padForBlocks(line_addr, requests, pads, n);
    }

    void
    padForLines(const LinePadRequest *requests, AesBlock *pads,
                unsigned n) const override
    {
        ++lineBatches;
        linePads += n;
        inner_.padForLines(requests, pads, n);
    }

    CacheLine
    padForLine(uint64_t line_addr, uint64_t counter) const override
    {
        ++otherCalls;
        return inner_.padForLine(line_addr, counter);
    }

    void reset() const { otherCalls = lineBatches = linePads = 0; }

    mutable unsigned otherCalls = 0;  ///< any entry but padForLines
    mutable unsigned lineBatches = 0; ///< padForLines() calls
    mutable unsigned linePads = 0;    ///< blocks they requested

  private:
    const OtpEngine &inner_;
};

/** Every scheme id, the sweep variants included. */
const char *const kAllIds[] = {
    "nodcw", "nofnw", "encr", "encr-fnw", "ble", "ble-deuce",
    "deuce", "deuce-fnw", "dyndeuce", "deuce-1b", "deuce-8b",
    "deuce-e8", "addrpad", "invmm", "perword", "vcc", "vcc-mlc"};

TEST(DeucePadPlan, ReadIsOnePadBatch)
{
    // A read plans its pads and fetches them as one padForLines()
    // stream of 4 * planReadPads() blocks — the read path's one choke
    // point — or, planning none, touches no engine at all. Every
    // DEUCE variant's LCTR and TCTR pads are one 8-block stream.
    FastOtpEngine fast(7);
    CallCountingOtp otp(fast);
    for (const char *id : kAllIds) {
        SCOPED_TRACE(id);
        std::unique_ptr<EncryptionScheme> scheme = makeScheme(id, otp);
        Rng rng(11);
        CacheLine plain = randomLine(rng);
        StoredLineState state;
        scheme->install(9, plain, state);
        for (int step = 0; step < 40; ++step) {
            LinePadRequest reqs[4 * kMaxReadPadLines];
            unsigned lines = scheme->planReadPads(9, state, reqs);
            otp.reset();
            EXPECT_EQ(scheme->read(9, state), plain) << "step " << step;
            EXPECT_EQ(otp.otherCalls, 0u) << "step " << step;
            EXPECT_EQ(otp.lineBatches, lines > 0 ? 1u : 0u)
                << "step " << step;
            EXPECT_EQ(otp.linePads, 4 * lines) << "step " << step;
            if (step == 0 &&
                std::string(id).find("deuce") != std::string::npos) {
                EXPECT_EQ(otp.linePads, 8u);
            }
            plain = rng.nextBool(0.3)
                ? randomLine(rng)
                : withModifiedWord(plain, step % 32, 16, rng.next());
            scheme->write(9, plain, state);
        }
    }

    // Through TenantScheme the plan is lifted to global addresses and
    // generated by the line's own tenant's engine alone, still as one
    // batch of 4 * planReadPads() pads.
    TenantKeyTable keys(0x7e4a47, 3, makeFastOtpEngine);
    for (const char *id : kAllIds) {
        SCOPED_TRACE(std::string("tenant ") + id);
        serve::TenantScheme scheme(keys, id, 8);
        const uint64_t addr = serve::TenantScheme::globalAddr(1, 9, 8);
        Rng rng(12);
        CacheLine plain = randomLine(rng);
        StoredLineState state;
        scheme.install(addr, plain, state);
        for (int step = 0; step < 10; ++step) {
            LinePadRequest reqs[4 * kMaxReadPadLines];
            unsigned lines = scheme.planReadPads(addr, state, reqs);
            for (unsigned i = 0; i < 4 * lines; ++i) {
                ASSERT_EQ(scheme.tenantOf(reqs[i].lineAddr), 1u);
            }
            OtpCounterSnapshot before[3];
            for (unsigned t = 0; t < 3; ++t) {
                before[t] = keys.engine(t).snapshotCounters();
            }
            EXPECT_EQ(scheme.read(addr, state), plain);
            for (unsigned t = 0; t < 3; ++t) {
                OtpCounterSnapshot now = keys.engine(t).snapshotCounters();
                bool mine = t == 1 && lines > 0;
                EXPECT_EQ(now.padBatches - before[t].padBatches,
                          mine ? 1u : 0u) << "tenant " << t;
                EXPECT_EQ(now.pads - before[t].pads, mine ? 4 * lines : 0)
                    << "tenant " << t;
            }
            plain = withModifiedWord(plain, step, 16, rng.next());
            scheme.write(addr, plain, state);
        }
    }
}

} // namespace
} // namespace deuce
