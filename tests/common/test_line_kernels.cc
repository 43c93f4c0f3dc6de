/**
 * @file
 * Backend-differential property tests for the line-kernel registry:
 * every compiled backend must produce field-identical results to the
 * scalar reference on every primitive, across structured edge
 * patterns (all-zero, all-ones, single-bit, limb-boundary straddles)
 * and randomized line pairs. Also covers the registry itself:
 * parse/name round-trips, resolution ladders, and the process-wide
 * selection override.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/cache_line.hh"
#include "common/line_kernels.hh"
#include "common/rng.hh"

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

CacheLine
allOnes()
{
    CacheLine line;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        line.limb(i) = ~uint64_t{0};
    }
    return line;
}

CacheLine
singleBit(unsigned bit)
{
    CacheLine line;
    line.setBit(bit, true);
    return line;
}

/** Bit positions that exercise limb boundaries and line extremes. */
const unsigned kEdgeBits[] = {0,   1,   63,  64,  65,  127, 128,
                              191, 192, 255, 256, 319, 320, 383,
                              384, 447, 448, 510, 511};

/**
 * The structured pair corpus every differential test sweeps: both
 * degenerate lines, single-bit diffs at limb boundaries, a bit
 * straddling pattern, and randomized pairs (some dense, some sparse,
 * some equal).
 */
std::vector<std::pair<CacheLine, CacheLine>>
pairCorpus()
{
    std::vector<std::pair<CacheLine, CacheLine>> pairs;
    CacheLine zero;
    CacheLine ones = allOnes();

    pairs.emplace_back(zero, zero);
    pairs.emplace_back(zero, ones);
    pairs.emplace_back(ones, zero);
    pairs.emplace_back(ones, ones);
    for (unsigned bit : kEdgeBits) {
        pairs.emplace_back(zero, singleBit(bit));
        pairs.emplace_back(ones, singleBit(bit));
        pairs.emplace_back(singleBit(bit), singleBit(511 - bit));
    }

    Rng rng(0x11e4e3);
    for (unsigned i = 0; i < 64; ++i) {
        CacheLine a = randomLine(rng);
        CacheLine b = randomLine(rng);
        pairs.emplace_back(a, b);
        pairs.emplace_back(a, a); // equal pair: zero diff
        // Sparse diff: flip a few bits of a copy.
        CacheLine c = a;
        for (unsigned f = 0; f < 3; ++f) {
            unsigned bit = static_cast<unsigned>(
                rng.nextBounded(CacheLine::kBits));
            c.setBit(bit, !c.bit(bit));
        }
        pairs.emplace_back(a, c);
    }
    return pairs;
}

class LineKernelDifferential
    : public ::testing::TestWithParam<LineBackendKind>
{
  protected:
    const LineKernelOps &ops()
    {
        return *lineBackendOps(GetParam());
    }
    const LineKernelOps &ref()
    {
        return *scalarLineKernelOps();
    }
};

TEST_P(LineKernelDifferential, PopcountMatchesScalar)
{
    for (const auto &[a, b] : pairCorpus()) {
        EXPECT_EQ(ops().popcount(a), ref().popcount(a));
        EXPECT_EQ(ops().popcount(b), ref().popcount(b));
    }
}

TEST_P(LineKernelDifferential, MlcTransitionCountsMatchCellReference)
{
    // Every backend against a cell-by-cell reference (cell c is bit
    // pair 2c, 2c+1), counts accumulating across calls. Equal and
    // all-ones pairs put all 256 cells of a line in one bucket.
    uint64_t got[16] = {};
    uint64_t want[16] = {};
    for (const auto &[a, b] : pairCorpus()) {
        ops().mlcTransitionCounts(a, b, got);
        for (unsigned c = 0; c < CacheLine::kBits / 2; ++c) {
            unsigned from = (a.bit(2 * c) ? 1u : 0u) |
                            (a.bit(2 * c + 1) ? 2u : 0u);
            unsigned to = (b.bit(2 * c) ? 1u : 0u) |
                          (b.bit(2 * c + 1) ? 2u : 0u);
            ++want[from * 4 + to];
        }
        ASSERT_EQ(std::vector<uint64_t>(got, got + 16),
                  std::vector<uint64_t>(want, want + 16));
    }
}

TEST_P(LineKernelDifferential, XorPopcountMatchesScalar)
{
    for (const auto &[a, b] : pairCorpus()) {
        EXPECT_EQ(ops().xorPopcount(a, b), ref().xorPopcount(a, b));
        // Symmetric and zero on aliased arguments.
        EXPECT_EQ(ops().xorPopcount(b, a), ref().xorPopcount(a, b));
        EXPECT_EQ(ops().xorPopcount(a, a), 0u);
    }
}

TEST_P(LineKernelDifferential, DiffIntoMatchesScalar)
{
    for (const auto &[a, b] : pairCorpus()) {
        CacheLine got, want;
        unsigned got_count = ops().diffInto(a, b, got);
        unsigned want_count = ref().diffInto(a, b, want);
        EXPECT_EQ(got_count, want_count);
        EXPECT_EQ(got, want);
    }
}

TEST_P(LineKernelDifferential, DiffIntoAliasedOutput)
{
    // The output may alias either input; kernels must read the whole
    // line before storing.
    for (const auto &[a, b] : pairCorpus()) {
        CacheLine want;
        unsigned want_count = ref().diffInto(a, b, want);

        CacheLine out_a = a;
        EXPECT_EQ(ops().diffInto(out_a, b, out_a), want_count);
        EXPECT_EQ(out_a, want);

        CacheLine out_b = b;
        EXPECT_EQ(ops().diffInto(a, out_b, out_b), want_count);
        EXPECT_EQ(out_b, want);
    }
}

TEST_P(LineKernelDifferential, WordDiffMaskMatchesScalar)
{
    for (const auto &[a, b] : pairCorpus()) {
        for (unsigned word_bits = 8; word_bits <= CacheLine::kBits;
             word_bits *= 2) {
            EXPECT_EQ(ops().wordDiffMask(a, b, word_bits),
                      ref().wordDiffMask(a, b, word_bits))
                << "word_bits=" << word_bits;
        }
    }
}

TEST_P(LineKernelDifferential, WordDiffMaskFlagsExactWords)
{
    // Independent oracle: a single flipped bit must mark exactly the
    // containing word, at every edge position and width.
    CacheLine zero;
    for (unsigned bit : kEdgeBits) {
        CacheLine one = singleBit(bit);
        for (unsigned word_bits = 8; word_bits <= CacheLine::kBits;
             word_bits *= 2) {
            EXPECT_EQ(ops().wordDiffMask(zero, one, word_bits),
                      uint64_t{1} << (bit / word_bits))
                << "bit=" << bit << " word_bits=" << word_bits;
        }
    }
}

TEST_P(LineKernelDifferential, RegionPopcountsMatchesScalar)
{
    for (const auto &[a, b] : pairCorpus()) {
        CacheLine diff;
        ref().diffInto(a, b, diff);
        for (unsigned region_bits = 2;
             region_bits <= CacheLine::kBits; region_bits *= 2) {
            unsigned regions = CacheLine::kBits / region_bits;
            uint16_t got[CacheLine::kBits / 2];
            uint16_t want[CacheLine::kBits / 2];
            ops().regionPopcounts(diff, region_bits, got);
            ref().regionPopcounts(diff, region_bits, want);
            for (unsigned r = 0; r < regions; ++r) {
                EXPECT_EQ(got[r], want[r])
                    << "region_bits=" << region_bits << " r=" << r;
            }
        }
    }
}

TEST_P(LineKernelDifferential, MaskedXorIntoMatchesScalar)
{
    Rng rng(0xa5a5);
    auto pairs = pairCorpus();
    for (const auto &[a, b] : pairs) {
        CacheLine mask = randomLine(rng);
        CacheLine got, want;
        unsigned got_count = ops().maskedXorInto(a, b, mask, got);
        unsigned want_count = ref().maskedXorInto(a, b, mask, want);
        EXPECT_EQ(got_count, want_count);
        EXPECT_EQ(got, want);
    }
}

TEST_P(LineKernelDifferential, AndNotIntoMatchesScalar)
{
    for (const auto &[a, b] : pairCorpus()) {
        CacheLine got, want;
        unsigned got_count = ops().andNotInto(a, b, got);
        unsigned want_count = ref().andNotInto(a, b, want);
        EXPECT_EQ(got_count, want_count);
        EXPECT_EQ(got, want);
    }
}

TEST_P(LineKernelDifferential, AccumulateFlipsMatchesScalar)
{
    // Counter deltas must be identical whichever strategy a backend
    // picks (sparse bit-scan vs dense add): start the two arrays at
    // the same nonzero values and compare after each accumulation.
    uint64_t got[CacheLine::kBits];
    uint64_t want[CacheLine::kBits];
    for (unsigned i = 0; i < CacheLine::kBits; ++i) {
        got[i] = want[i] = i * 7;
    }
    for (const auto &[a, b] : pairCorpus()) {
        CacheLine diff;
        ref().diffInto(a, b, diff);
        ops().accumulateFlips(diff, got);
        ref().accumulateFlips(diff, want);
    }
    EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0);
}

TEST_P(LineKernelDifferential, PopcountBatchMatchesScalar)
{
    std::vector<CacheLine> lines;
    for (const auto &[x, y] : pairCorpus()) {
        lines.push_back(x);
        lines.push_back(y);
    }
    std::vector<uint32_t> got(lines.size()), want(lines.size());
    ops().popcountBatch(lines.data(), got.data(), lines.size());
    ref().popcountBatch(lines.data(), want.data(), lines.size());
    EXPECT_EQ(got, want);

    ops().popcountBatch(lines.data(), got.data(), 0);
}

TEST_P(LineKernelDifferential, AccumulateFlipsBatchMatchesScalar)
{
    // The cross-line (carry-save) accumulation must land exactly the
    // per-position counts of n single-line accumulations; sweep batch
    // sizes around the CSA implementation's 7-line grouping.
    std::vector<CacheLine> diffs;
    for (const auto &[x, y] : pairCorpus()) {
        CacheLine d;
        ref().diffInto(x, y, d);
        diffs.push_back(d);
    }
    for (std::size_t n : std::vector<std::size_t>{
             0, 1, 2, 6, 7, 8, 13, 14, 20, diffs.size()}) {
        ASSERT_LE(n, diffs.size());
        uint64_t got[CacheLine::kBits];
        uint64_t want[CacheLine::kBits];
        for (unsigned i = 0; i < CacheLine::kBits; ++i) {
            got[i] = want[i] = i * 3 + 1;
        }
        ops().accumulateFlipsBatch(diffs.data(), n, got);
        for (std::size_t i = 0; i < n; ++i) {
            ref().accumulateFlips(diffs[i], want);
        }
        EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0)
            << "batch size " << n;
    }
}

TEST_P(LineKernelDifferential, AccumulateFlipsBatchLongDenseBursts)
{
    // All-ones diffs drive every per-position count to the burst
    // length: bursts around 255 lines cross the point where a narrow
    // per-position counter would have to be widened, and a random
    // tail checks the positions stay apart.
    Rng rng(17);
    std::vector<CacheLine> diffs(600, ~CacheLine{});
    for (std::size_t i = 300; i < diffs.size(); ++i) {
        for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
            diffs[i].limb(l) = rng.next();
        }
    }
    for (std::size_t n : std::vector<std::size_t>{
             9, 64, 254, 255, 256, 300, 511, 600}) {
        uint64_t got[CacheLine::kBits];
        uint64_t want[CacheLine::kBits];
        for (unsigned i = 0; i < CacheLine::kBits; ++i) {
            got[i] = want[i] = i * 7 + 5;
        }
        ops().accumulateFlipsBatch(diffs.data(), n, got);
        for (std::size_t i = 0; i < n; ++i) {
            ref().accumulateFlips(diffs[i], want);
        }
        EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0)
            << "batch size " << n;
    }
}

std::string
backendTestName(
    const ::testing::TestParamInfo<LineBackendKind> &info)
{
    return lineBackendName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Backends, LineKernelDifferential,
                         ::testing::ValuesIn(availableLineBackends()),
                         backendTestName);

TEST(LineBackendRegistry, ParseNamesRoundTrip)
{
    for (LineBackendKind kind :
         {LineBackendKind::Auto, LineBackendKind::Scalar,
          LineBackendKind::Avx2, LineBackendKind::Neon}) {
        auto parsed = parseLineBackendName(lineBackendName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(parseLineBackendName("").has_value());
    EXPECT_FALSE(parseLineBackendName("avx512").has_value());
    EXPECT_FALSE(parseLineBackendName("SCALAR").has_value());
    EXPECT_FALSE(parseLineBackendName("sse2").has_value());
}

TEST(LineBackendRegistry, ScalarAlwaysAvailable)
{
    auto backends = availableLineBackends();
    ASSERT_FALSE(backends.empty());
    EXPECT_NE(std::find(backends.begin(), backends.end(),
                        LineBackendKind::Scalar),
              backends.end());
    for (LineBackendKind kind : backends) {
        const LineKernelOps *ops = lineBackendOps(kind);
        ASSERT_NE(ops, nullptr);
        EXPECT_STREQ(ops->name, lineBackendName(kind));
    }
}

TEST(LineBackendRegistry, ResolutionNeverReturnsAuto)
{
    for (LineBackendKind kind :
         {LineBackendKind::Auto, LineBackendKind::Scalar,
          LineBackendKind::Avx2, LineBackendKind::Neon}) {
        LineBackendKind resolved = resolveLineBackend(kind);
        EXPECT_NE(resolved, LineBackendKind::Auto);
        // Resolution lands on something this host can run.
        auto backends = availableLineBackends();
        EXPECT_NE(std::find(backends.begin(), backends.end(),
                            resolved),
                  backends.end());
    }
}

TEST(LineBackendRegistry, SetLineBackendTakesEffectImmediately)
{
    LineBackendKind original = activeLineBackend();
    setLineBackend(LineBackendKind::Scalar);
    EXPECT_EQ(activeLineBackend(), LineBackendKind::Scalar);
    EXPECT_STREQ(lineKernels().name, "scalar");

    setLineBackend(LineBackendKind::Auto);
    EXPECT_EQ(activeLineBackend(), resolveLineBackend(original));
}

TEST(LineBackendRegistry, CacheLineMethodsFollowSelection)
{
    // CacheLine::popcount/flipsTo/diff route through the active
    // backend; the answers must not depend on which one is selected.
    Rng rng(0xc0de);
    CacheLine a = randomLine(rng);
    CacheLine b = randomLine(rng);

    setLineBackend(LineBackendKind::Scalar);
    unsigned pop = a.popcount();
    unsigned flips = a.flipsTo(b);
    CacheLine diff = a.diff(b);

    for (LineBackendKind kind : availableLineBackends()) {
        setLineBackend(kind);
        EXPECT_EQ(a.popcount(), pop);
        EXPECT_EQ(a.flipsTo(b), flips);
        EXPECT_EQ(a.diff(b), diff);
    }
    setLineBackend(LineBackendKind::Auto);
}

} // namespace
} // namespace deuce
