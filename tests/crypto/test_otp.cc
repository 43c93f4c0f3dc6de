/**
 * @file
 * Tests for the counter-mode pad generators: determinism, uniqueness
 * over the (address, counter, block) space, avalanche statistics, and
 * the statistical equivalence of the fast engine.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/cache_line.hh"
#include "crypto/aes_backend.hh"
#include "crypto/otp_engine.hh"

namespace deuce
{
namespace
{

class OtpEngineTest : public ::testing::TestWithParam<bool>
{
  protected:
    std::unique_ptr<OtpEngine>
    make(uint64_t seed = 0x1234)
    {
        if (GetParam()) {
            return std::make_unique<FastOtpEngine>(seed);
        }
        return makeAesOtpEngine(seed);
    }
};

TEST_P(OtpEngineTest, Deterministic)
{
    auto a = make();
    auto b = make();
    EXPECT_EQ(a->padForBlock(5, 7, 2), b->padForBlock(5, 7, 2));
    EXPECT_EQ(a->padForLine(99, 1000), b->padForLine(99, 1000));
}

TEST_P(OtpEngineTest, EmptyRequestChargesNoBatch)
{
    auto otp = make();
    otp->padForBlocks(5, nullptr, nullptr, 0);
    otp->padForLines(nullptr, nullptr, 0);
    EXPECT_EQ(otp->snapshotCounters(), OtpCounterSnapshot{});
}

TEST_P(OtpEngineTest, DistinctAcrossInputs)
{
    auto otp = make();
    std::set<AesBlock> seen;
    for (uint64_t addr = 0; addr < 8; ++addr) {
        for (uint64_t ctr = 0; ctr < 8; ++ctr) {
            for (unsigned block = 0; block < 4; ++block) {
                auto [it, inserted] =
                    seen.insert(otp->padForBlock(addr, ctr, block));
                EXPECT_TRUE(inserted)
                    << "pad collision at addr=" << addr
                    << " ctr=" << ctr << " block=" << block;
            }
        }
    }
    EXPECT_EQ(seen.size(), 8u * 8u * 4u);
}

TEST_P(OtpEngineTest, KeyChangesPad)
{
    auto a = make(1);
    auto b = make(2);
    EXPECT_NE(a->padForBlock(0, 0, 0), b->padForBlock(0, 0, 0));
}

TEST_P(OtpEngineTest, PadForLineConcatenatesBlocks)
{
    auto otp = make();
    CacheLine pad = otp->padForLine(321, 17);
    for (unsigned block = 0; block < 4; ++block) {
        AesBlock expected = otp->padForBlock(321, 17, block);
        for (unsigned i = 0; i < 16; ++i) {
            EXPECT_EQ(pad.byte(block * 16 + i), expected[i]);
        }
    }
}

TEST_P(OtpEngineTest, ConsecutiveCounterPadsDifferInHalfTheBits)
{
    auto otp = make();
    double total = 0.0;
    const int trials = 200;
    for (int i = 0; i < trials; ++i) {
        CacheLine p1 = otp->padForLine(42, i);
        CacheLine p2 = otp->padForLine(42, i + 1);
        total += hammingDistance(p1, p2);
    }
    // This is the paper's core premise: a counter bump re-randomises
    // about half of the 512 pad bits.
    EXPECT_NEAR(total / trials, 256.0, 8.0);
}

TEST_P(OtpEngineTest, PadBitsAreBalanced)
{
    auto otp = make();
    double total = 0.0;
    const int trials = 200;
    for (int i = 0; i < trials; ++i) {
        total += otp->padForLine(7, i).popcount();
    }
    EXPECT_NEAR(total / trials, 256.0, 8.0);
}

INSTANTIATE_TEST_SUITE_P(AesAndFast, OtpEngineTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "Fast" : "Aes";
                         });

TEST(OtpEngines, FastAndAesHaveMatchingFlipStatistics)
{
    // The fast engine is only legitimate as an AES stand-in if the
    // flip statistics agree; compare the mean pad-to-pad Hamming
    // distance of both engines.
    auto aes = makeAesOtpEngine(5);
    FastOtpEngine fast(5);
    double aes_mean = 0.0, fast_mean = 0.0;
    const int trials = 300;
    for (int i = 0; i < trials; ++i) {
        aes_mean += hammingDistance(aes->padForLine(9, i),
                                    aes->padForLine(9, i + 1));
        fast_mean += hammingDistance(fast.padForLine(9, i),
                                     fast.padForLine(9, i + 1));
    }
    aes_mean /= trials;
    fast_mean /= trials;
    EXPECT_NEAR(aes_mean, fast_mean, 6.0);
}

TEST(OtpEngines, BlockIndexOutOfRangePanics)
{
    auto otp = makeAesOtpEngine(1);
    EXPECT_ANY_THROW(otp->padForBlock(0, 0, 4));
}

TEST(OtpEngines, DefaultPadForBlocksMatchesSingles)
{
    // FastOtpEngine does not override padForBlocks, so this pins the
    // base-class fallback to the single-pad path.
    FastOtpEngine fast(77);
    PadRequest reqs[6] = {{0, 0}, {0, 3}, {9, 1}, {9, 2},
                          {12345, 0}, {12345, 3}};
    AesBlock pads[6];
    fast.padForBlocks(42, reqs, pads, 6);
    for (unsigned i = 0; i < 6; ++i) {
        EXPECT_EQ(pads[i], fast.padForBlock(42, reqs[i].counter,
                                            reqs[i].block))
            << "request " << i;
    }
}

TEST(OtpEngines, DefaultPadForLinesMatchesSingles)
{
    // FastOtpEngine does not override padForLines, so this pins the
    // base-class fallback to the single-pad path.
    FastOtpEngine fast(77);
    LinePadRequest reqs[8] = {{0, 0, 0},     {0, 0, 3},
                              {9, 5, 1},     {9, 5, 2},
                              {12345, 1, 0}, {12345, 2, 0},
                              {7, 1u << 20, 3}, {8, 3, 2}};
    AesBlock pads[8];
    fast.padForLines(reqs, pads, 8);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(pads[i], fast.padForBlock(reqs[i].lineAddr,
                                            reqs[i].counter,
                                            reqs[i].block))
            << "request " << i;
    }
}

/** The batched pad paths, exercised per cipher backend. */
class OtpBackendTest : public ::testing::TestWithParam<AesBackendKind>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == AesBackendKind::AesNi && !aesniAvailable()) {
            GTEST_SKIP() << "AES-NI not available on this host";
        }
        if (GetParam() == AesBackendKind::Vaes && !vaesAvailable()) {
            GTEST_SKIP() << "VAES not available on this host";
        }
        if (GetParam() == AesBackendKind::Neon && !aesNeonAvailable()) {
            GTEST_SKIP() << "NEON AES not available on this host";
        }
    }

    AesOtpEngine
    make(uint8_t seed = 0x5e) const
    {
        AesKey key{};
        for (unsigned i = 0; i < 16; ++i) {
            key[i] = static_cast<uint8_t>(seed + 31 * i);
        }
        return AesOtpEngine(key, GetParam());
    }
};

TEST_P(OtpBackendTest, PadForLineMatchesFourPadForBlocks)
{
    AesOtpEngine otp = make();
    for (uint64_t ctr : {uint64_t{0}, uint64_t{17}, uint64_t{1} << 40}) {
        CacheLine line = otp.padForLine(321, ctr);
        for (unsigned block = 0; block < 4; ++block) {
            AesBlock expect = otp.padForBlock(321, ctr, block);
            for (unsigned i = 0; i < 16; ++i) {
                EXPECT_EQ(line.byte(block * 16 + i), expect[i])
                    << "ctr " << ctr << " block " << block;
            }
        }
    }
}

TEST_P(OtpBackendTest, BatchedPadsMatchSingles)
{
    AesOtpEngine otp = make();
    // Mixed counters and blocks, long enough to cross the engine's
    // internal chunking and the cipher's 4-wide pipeline.
    constexpr unsigned kN = 37;
    PadRequest reqs[kN];
    AesBlock pads[kN];
    for (unsigned i = 0; i < kN; ++i) {
        reqs[i] = PadRequest{uint64_t{1} << (i % 50), i % 4};
    }
    otp.padForBlocks(99, reqs, pads, kN);
    for (unsigned i = 0; i < kN; ++i) {
        EXPECT_EQ(pads[i], otp.padForBlock(99, reqs[i].counter,
                                           reqs[i].block))
            << "request " << i;
    }
}

TEST_P(OtpBackendTest, PadForLinesMatchesSingles)
{
    AesOtpEngine otp = make();
    // Addresses vary per request (what distinguishes padForLines from
    // padForBlocks); length crosses the 64-entry chunk twice plus an
    // odd tail, so every internal path of a wide backend runs.
    constexpr unsigned kN = 151;
    std::vector<LinePadRequest> reqs(kN);
    std::vector<AesBlock> pads(kN);
    for (unsigned i = 0; i < kN; ++i) {
        reqs[i] = LinePadRequest{(uint64_t{i} * 0x9e3779b97f4aull) &
                                     ((uint64_t{1} << 48) - 1),
                                 (uint64_t{1} << (i % 47)) + i, i % 4};
    }
    otp.padForLines(reqs.data(), pads.data(), kN);
    for (unsigned i = 0; i < kN; ++i) {
        EXPECT_EQ(pads[i], otp.padForBlock(reqs[i].lineAddr,
                                           reqs[i].counter,
                                           reqs[i].block))
            << "request " << i;
    }
}

TEST_P(OtpBackendTest, PadForLinesCounterOverflowMidBatch)
{
    // A burst whose counters straddle carry boundaries mid-batch —
    // the per-word-counter overflow pattern: the architectural 28-bit
    // width, a 32-bit carry, and the top of the 48-bit nonce field.
    AesOtpEngine otp = make();
    std::vector<LinePadRequest> reqs;
    for (uint64_t c :
         {(uint64_t{1} << 28) - 2, (uint64_t{1} << 28) - 1,
          uint64_t{1} << 28, (uint64_t{1} << 32) - 1, uint64_t{1} << 32,
          (uint64_t{1} << 48) - 1}) {
        for (unsigned b = 0; b < 4; ++b) {
            reqs.push_back(LinePadRequest{0xabcde, c, b});
        }
    }
    std::vector<AesBlock> pads(reqs.size());
    otp.padForLines(reqs.data(), pads.data(),
                    static_cast<unsigned>(reqs.size()));
    for (unsigned i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(pads[i], otp.padForBlock(reqs[i].lineAddr,
                                           reqs[i].counter,
                                           reqs[i].block))
            << "request " << i << " counter " << reqs[i].counter;
    }
}

TEST_P(OtpBackendTest, PadsIdenticalAcrossBackends)
{
    AesOtpEngine otp = make();
    AesKey key{};
    for (unsigned i = 0; i < 16; ++i) {
        key[i] = static_cast<uint8_t>(0x5e + 31 * i);
    }
    AesOtpEngine scalar(key, AesBackendKind::Scalar);
    for (uint64_t addr : {uint64_t{0}, uint64_t{0xabcdef}}) {
        for (uint64_t ctr = 0; ctr < 8; ++ctr) {
            EXPECT_EQ(otp.padForLine(addr, ctr),
                      scalar.padForLine(addr, ctr))
                << "addr " << addr << " ctr " << ctr;
        }
    }
}

TEST_P(OtpBackendTest, ReportsBackendName)
{
    AesOtpEngine otp = make();
    EXPECT_STREQ(otp.backendName(), aesBackendName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, OtpBackendTest,
    ::testing::Values(AesBackendKind::Scalar, AesBackendKind::AesNi,
                      AesBackendKind::Vaes, AesBackendKind::Neon),
    [](const ::testing::TestParamInfo<AesBackendKind> &info) {
        switch (info.param) {
          case AesBackendKind::Scalar: return "Scalar";
          case AesBackendKind::Vaes: return "Vaes";
          case AesBackendKind::Neon: return "Neon";
          default: return "AesNi";
        }
    });

} // namespace
} // namespace deuce
