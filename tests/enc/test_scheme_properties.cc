/**
 * @file
 * Property tests applied uniformly to EVERY scheme the factory can
 * build: read-after-write correctness on arbitrary traffic,
 * accounting consistency, determinism across instances, and the
 * relative-cost orderings the paper's figures rest on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/per_word_counters.hh"
#include "enc/scheme_factory.hh"

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

/** Sparse mutation: touch a few bytes. */
CacheLine
sparseMutate(const CacheLine &base, Rng &rng)
{
    CacheLine out = base;
    unsigned touches = 1 + static_cast<unsigned>(rng.nextBounded(6));
    for (unsigned t = 0; t < touches; ++t) {
        unsigned byte = static_cast<unsigned>(rng.nextBounded(64));
        out.setByte(byte, out.byte(byte) ^
                              static_cast<uint8_t>(rng.next() | 1));
    }
    return out;
}

class SchemePropertyTest : public ::testing::TestWithParam<std::string>
{
  protected:
    SchemePropertyTest() : otp_(makeAesOtpEngine(4242)) {}
    std::unique_ptr<OtpEngine> otp_;
};

TEST_P(SchemePropertyTest, InstallThenReadIsIdentity)
{
    auto scheme = makeScheme(GetParam(), *otp_);
    Rng rng(1);
    for (uint64_t addr : {0ull, 17ull, 12345ull, (1ull << 33)}) {
        CacheLine plain = randomLine(rng);
        StoredLineState state;
        scheme->install(addr, plain, state);
        EXPECT_EQ(scheme->read(addr, state), plain);
    }
}

TEST_P(SchemePropertyTest, ReadAfterWriteOverMixedTraffic)
{
    auto scheme = makeScheme(GetParam(), *otp_);
    Rng rng(2);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    scheme->install(99, plain, state);
    for (int step = 0; step < 150; ++step) {
        plain = rng.nextBool(0.2) ? randomLine(rng)
                                  : sparseMutate(plain, rng);
        scheme->write(99, plain, state);
        ASSERT_EQ(scheme->read(99, state), plain)
            << GetParam() << " step " << step;
    }
}

TEST_P(SchemePropertyTest, AccountingMatchesStateDiff)
{
    auto scheme = makeScheme(GetParam(), *otp_);
    Rng rng(3);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    scheme->install(7, plain, state);
    for (int step = 0; step < 60; ++step) {
        StoredLineState before = state;
        plain = sparseMutate(plain, rng);
        WriteResult r = scheme->write(7, plain, state);
        EXPECT_EQ(r.dataDiff, before.data ^ state.data);
        EXPECT_EQ(r.dataFlips, r.dataDiff.popcount());
        EXPECT_EQ(r.modifiedDiff,
                  before.modifiedBits ^ state.modifiedBits);
        EXPECT_EQ(r.flipDiff, before.flipBits ^ state.flipBits);
        // metaFlips covers counters + tracking + mode bit.
        unsigned expected_meta = static_cast<unsigned>(
            std::popcount(r.modifiedDiff) + std::popcount(r.flipDiff) +
            std::popcount(before.counter ^ state.counter));
        for (unsigned b = 0; b < 4; ++b) {
            expected_meta += static_cast<unsigned>(std::popcount(
                before.blockCounters[b] ^ state.blockCounters[b]));
        }
        expected_meta += before.modeBit != state.modeBit ? 1 : 0;
        EXPECT_EQ(r.metaFlips, expected_meta);
    }
}

TEST_P(SchemePropertyTest, DeterministicAcrossInstances)
{
    auto s1 = makeScheme(GetParam(), *otp_);
    auto s2 = makeScheme(GetParam(), *otp_);
    Rng rng_a(4), rng_b(4);
    CacheLine p1 = randomLine(rng_a);
    CacheLine p2 = randomLine(rng_b);
    StoredLineState st1, st2;
    s1->install(3, p1, st1);
    s2->install(3, p2, st2);
    for (int step = 0; step < 50; ++step) {
        p1 = sparseMutate(p1, rng_a);
        p2 = sparseMutate(p2, rng_b);
        s1->write(3, p1, st1);
        s2->write(3, p2, st2);
        ASSERT_EQ(st1, st2);
    }
}

TEST_P(SchemePropertyTest, SchemeNameNonEmptyAndStable)
{
    auto scheme = makeScheme(GetParam(), *otp_);
    EXPECT_FALSE(scheme->name().empty());
    EXPECT_EQ(scheme->name(), makeScheme(GetParam(), *otp_)->name());
}

TEST_P(SchemePropertyTest, IndependentLinesDoNotInterfere)
{
    auto scheme = makeScheme(GetParam(), *otp_);
    Rng rng(5);
    CacheLine pa = randomLine(rng), pb = randomLine(rng);
    StoredLineState sa, sb;
    scheme->install(1000, pa, sa);
    scheme->install(2000, pb, sb);
    for (int step = 0; step < 40; ++step) {
        pa = sparseMutate(pa, rng);
        scheme->write(1000, pa, sa);
        ASSERT_EQ(scheme->read(2000, sb), pb);
        ASSERT_EQ(scheme->read(1000, sa), pa);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemePropertyTest,
    ::testing::Values("nodcw", "nofnw", "encr", "encr-fnw", "ble",
                      "ble-deuce", "deuce", "deuce-fnw", "dyndeuce",
                      "deuce-1b", "deuce-8b", "deuce-e8",
                      "addrpad", "invmm"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(SchemeProperty, CorruptionContainmentOfXorPadSchemes)
{
    // For pure counter-mode schemes, decryption is data XOR pad, so a
    // single corrupted cell must flip exactly one plaintext bit (the
    // same position) -- errors do not avalanche on reads. This is a
    // real reliability property of OTP memory encryption (and the
    // reason ECC composes cleanly with it).
    auto otp = makeAesOtpEngine(8);
    Rng rng(8);
    for (const char *id :
         {"encr", "deuce", "ble", "addrpad", "perword", "vcc", "vcc-mlc"}) {
        auto scheme = makeScheme(id, *otp);
        CacheLine plain = randomLine(rng);
        StoredLineState state;
        scheme->install(6, plain, state);
        for (int w = 0; w < 5; ++w) {
            plain = sparseMutate(plain, rng);
            scheme->write(6, plain, state);
        }
        CacheLine before = scheme->read(6, state);
        unsigned bit = static_cast<unsigned>(rng.nextBounded(512));
        StoredLineState corrupted = state;
        corrupted.data.setBit(bit, !corrupted.data.bit(bit));
        CacheLine after = scheme->read(6, corrupted);
        EXPECT_EQ(hammingDistance(before, after), 1u) << id;
        EXPECT_NE(before.bit(bit), after.bit(bit)) << id;
    }
}

TEST(SchemeProperty, PadPlanFitsTheWriteArena)
{
    // EncryptionScheme::write() plans into a fixed arena of
    // 4 * kMaxWritePadLines requests: every scheme must stay within
    // it on every write, epoch starts included. The buffer here is
    // oversized so an over-plan fails the check instead of overrunning
    // it.
    std::unique_ptr<OtpEngine> otp = makeAesOtpEngine(4242);
    for (const char *id :
         {"nodcw", "nofnw", "encr", "encr-fnw", "ble", "ble-deuce",
          "deuce", "deuce-fnw", "dyndeuce", "deuce-1b", "deuce-8b",
          "deuce-e8", "addrpad", "invmm", "perword", "vcc", "vcc-mlc"}) {
        auto scheme = makeScheme(id, *otp);
        Rng rng(6);
        CacheLine plain = randomLine(rng);
        StoredLineState state;
        scheme->install(11, plain, state);
        std::vector<LinePadRequest> reqs(16 * kMaxWritePadLines);
        for (int step = 0; step < 80; ++step) {
            ASSERT_LE(scheme->planWritePads(11, state, reqs.data()),
                      kMaxWritePadLines)
                << id << " step " << step;
            plain = sparseMutate(plain, rng);
            scheme->write(11, plain, state);
        }
    }
}

TEST(SchemeProperty, ReadPadPlanFitsTheReadArena)
{
    // EncryptionScheme::read() plans into a fixed arena of
    // 4 * kMaxReadPadLines requests: every scheme must stay within it
    // on every read, epoch starts and re-keys included, and the plan
    // must decode what was written. Per-word counters at their
    // smallest word (1 byte, 2-bit counters so they re-key) fill the
    // read arena exactly, and their write plan is that read-back. The
    // buffer here is oversized so an over-plan fails the check
    // instead of overrunning it.
    std::unique_ptr<OtpEngine> otp = makeAesOtpEngine(4242);
    std::vector<std::unique_ptr<EncryptionScheme>> schemes;
    for (const char *id :
         {"nodcw", "nofnw", "encr", "encr-fnw", "ble", "ble-deuce",
          "deuce", "deuce-fnw", "dyndeuce", "deuce-1b", "deuce-8b",
          "deuce-e8", "addrpad", "invmm", "perword", "vcc", "vcc-mlc"}) {
        schemes.push_back(makeScheme(id, *otp));
    }
    schemes.push_back(std::make_unique<PerWordCounters>(*otp, 1, 2));
    for (const auto &scheme : schemes) {
        const bool one_byte = scheme->name() == "PerWordCtr-1B-c2";
        Rng rng(7);
        CacheLine plain = randomLine(rng);
        StoredLineState state;
        scheme->install(11, plain, state);
        std::vector<LinePadRequest> reqs(16 * kMaxWritePadLines);
        for (int step = 0; step < 120; ++step) {
            unsigned lines = scheme->planReadPads(11, state, reqs.data());
            ASSERT_LE(lines, kMaxReadPadLines)
                << scheme->name() << " step " << step;
            if (one_byte) {
                ASSERT_EQ(lines, kMaxReadPadLines);
                ASSERT_EQ(scheme->planWritePads(11, state, reqs.data()),
                          kMaxReadPadLines);
            }
            ASSERT_EQ(scheme->read(11, state), plain)
                << scheme->name() << " step " << step;
            plain = rng.nextBool(0.1) ? randomLine(rng)
                                      : sparseMutate(plain, rng);
            scheme->write(11, plain, state);
        }
        if (one_byte) {
            EXPECT_GT(
                static_cast<const PerWordCounters &>(*scheme)
                    .overflowRekeys(),
                0u);
        }
    }
}

TEST(SchemeFactory, UnknownIdIsFatal)
{
    auto otp = makeAesOtpEngine(1);
    EXPECT_THROW(makeScheme("not-a-scheme", *otp), FatalError);
    EXPECT_THROW(makeScheme("", *otp), FatalError);
    // DEUCE variant ids: the number is digits only, no junk, no sign.
    for (const char *id :
         {"deuce-2xyzb", "deuce-e32junk", "deuce-+2b", "deuce-b",
          "deuce-e", "deuce-e-32", "deuce- 2b", "deuce-e32b"}) {
        EXPECT_THROW(makeScheme(id, *otp), FatalError) << id;
    }
    EXPECT_EQ(makeScheme("deuce-4b", *otp)->name(), "DEUCE-4B-e32");
    EXPECT_EQ(makeScheme("deuce-e16", *otp)->name(), "DEUCE-2B-e16");
}

TEST(SchemeFactory, AllSchemeIdsConstructible)
{
    auto otp = makeAesOtpEngine(1);
    for (const std::string &id : allSchemeIds()) {
        EXPECT_NO_THROW(makeScheme(id, *otp)) << id;
    }
}

TEST(SchemeOrdering, CostOrderingOnSparseStableTraffic)
{
    // The ordering Figure 10 rests on, reproduced on a single line
    // with a stable sparse footprint: DEUCE and friends beat
    // encrypted FNW, which beats raw counter mode; nothing beats the
    // unencrypted baseline.
    auto otp = makeAesOtpEngine(6);
    Rng rng(6);
    std::vector<std::string> ids = {"nodcw", "deuce", "encr-fnw",
                                    "encr"};
    std::vector<double> totals(ids.size(), 0.0);

    std::vector<std::unique_ptr<EncryptionScheme>> schemes;
    std::vector<StoredLineState> states(ids.size());
    CacheLine plain = randomLine(rng);
    for (size_t i = 0; i < ids.size(); ++i) {
        schemes.push_back(makeScheme(ids[i], *otp));
        schemes[i]->install(5, plain, states[i]);
    }
    for (int step = 0; step < 400; ++step) {
        // Stable footprint: the same three words churn.
        for (unsigned w : {2u, 9u, 30u}) {
            plain.setField(w * 16, 16,
                           plain.field(w * 16, 16) ^ (rng.next() | 1));
        }
        for (size_t i = 0; i < ids.size(); ++i) {
            totals[i] +=
                schemes[i]->write(5, plain, states[i]).totalFlips();
        }
    }
    double nodcw = totals[0], deuce = totals[1];
    double encr_fnw = totals[2], encr = totals[3];
    EXPECT_LT(nodcw, deuce);
    EXPECT_LT(deuce, encr_fnw);
    EXPECT_LT(encr_fnw, encr);
}

} // namespace
} // namespace deuce
