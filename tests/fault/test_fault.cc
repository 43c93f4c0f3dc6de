/**
 * @file
 * Unit tests for the end-of-life fault subsystem: endurance sampling,
 * the budget floor, stuck-at transitions, the bit-plane counters
 * against an eager reference model, ECP correction, line
 * decommissioning, the FaultDomain pipeline, and the MemorySystem
 * integration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "fault/cell_fault_map.hh"
#include "fault/ecp_corrector.hh"
#include "fault/fault_domain.hh"
#include "fault/line_decommissioner.hh"
#include "sim/experiment.hh"
#include "sim/memory_system.hh"
#include "sim/report.hh"

namespace deuce
{

/** Seeds and reads a CellFaultMap's bit-planes (a friend of it). */
class CellFaultMapTestPeer
{
  public:
    /**
     * Make @p counts the flip counts of the untouched @p line, on the
     * planes: every count must be below 2^K.
     */
    static void
    seed(CellFaultMap &map, uint64_t line,
         const std::array<uint32_t, CacheLine::kBits> &counts)
    {
        auto [state, fresh] = map.lines_.tryEmplace(line);
        ASSERT_TRUE(fresh);
        unsigned planes = 0;
        for (uint32_t n : counts) {
            planes = std::max(planes,
                              static_cast<unsigned>(std::bit_width(n)));
        }
        ASSERT_LE(planes, map.maxPlanes_);
        state->planes.assign(planes, CacheLine{});
        for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
            for (unsigned p = 0; p < planes; ++p) {
                state->planes[p].setBit(cell, (counts[cell] >> p) & 1);
            }
        }
    }

    /** Flips charged to @p cell of @p line, from planes or exact. */
    static uint32_t
    count(const CellFaultMap &map, uint64_t line, unsigned cell)
    {
        const CellFaultMap::LineState *state = map.lines_.find(line);
        if (!state) {
            return 0;
        }
        if (state->exact) {
            return state->exact->flips[cell];
        }
        uint32_t n = 0;
        for (unsigned p = 0; p < state->planes.size(); ++p) {
            n |= static_cast<uint32_t>(state->planes[p].bit(cell)) << p;
        }
        return n;
    }

    static unsigned maxPlanes(const CellFaultMap &map)
    {
        return map.maxPlanes_;
    }
};

namespace
{

FaultConfig
uniformConfig(double endurance, unsigned ecp)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.meanEndurance = endurance;
    cfg.enduranceSigma = 0.0; // every cell identical: deterministic
    cfg.ecpEntries = ecp;
    return cfg;
}

TEST(CellFaultMap, EnduranceSamplingIsDeterministic)
{
    FaultConfig cfg;
    cfg.meanEndurance = 1e4;
    cfg.enduranceSigma = 0.25;
    CellFaultMap a(cfg), b(cfg);
    for (uint64_t line : {0ull, 7ull, 123456789ull}) {
        for (unsigned cell : {0u, 63u, 255u, 511u}) {
            EXPECT_EQ(a.enduranceOf(line, cell),
                      b.enduranceOf(line, cell));
        }
    }

    FaultConfig other = cfg;
    other.seed = cfg.seed + 1;
    CellFaultMap c(other);
    bool differs = false;
    for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
        differs |= a.enduranceOf(0, cell) != c.enduranceOf(0, cell);
    }
    EXPECT_TRUE(differs);
}

TEST(CellFaultMap, SampledEnduranceIsUntouchedByWear)
{
    // enduranceOf answers identically before and after the line's
    // state is materialised by a write.
    FaultConfig cfg;
    cfg.meanEndurance = 1e4;
    cfg.enduranceSigma = 0.3;
    CellFaultMap map(cfg);
    double before = map.enduranceOf(42, 17);
    CacheLine flips;
    flips.setBit(17, true);
    map.recordWrite(42, flips, CacheLine{});
    EXPECT_EQ(map.enduranceOf(42, 17), before);
}

TEST(CellFaultMap, LognormalMeanRoughlyPreserved)
{
    FaultConfig cfg;
    cfg.meanEndurance = 5000.0;
    cfg.enduranceSigma = 0.25;
    CellFaultMap map(cfg);
    double sum = 0.0;
    unsigned n = 0;
    for (uint64_t line = 0; line < 8; ++line) {
        for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
            sum += map.enduranceOf(line, cell);
            ++n;
        }
    }
    EXPECT_NEAR(sum / n, cfg.meanEndurance,
                0.05 * cfg.meanEndurance);
}

TEST(CellFaultMap, ZeroSigmaMakesEveryCellExactlyMean)
{
    CellFaultMap map(uniformConfig(321.0, 0));
    EXPECT_DOUBLE_EQ(map.enduranceOf(0, 0), 321.0);
    EXPECT_DOUBLE_EQ(map.enduranceOf(99, 511), 321.0);
}

TEST(CellFaultMap, CellSticksAtImageValueWhenBudgetSpent)
{
    CellFaultMap map(uniformConfig(3.0, 0));
    CacheLine flips;
    flips.setBit(5, true);
    CacheLine image;
    image.setBit(5, true);

    // Two flips: still alive.
    EXPECT_EQ(map.recordWrite(1, flips, image).newlyStuck.popcount(),
              0u);
    EXPECT_EQ(map.recordWrite(1, flips, image).newlyStuck.popcount(),
              0u);
    EXPECT_EQ(map.stuckCells(), 0u);

    // Third flip crosses the budget: stuck at the image value (1).
    CellFaultMap::WriteEffect effect = map.recordWrite(1, flips, image);
    EXPECT_TRUE(effect.newlyStuck.bit(5));
    EXPECT_EQ(effect.conflicts.popcount(), 0u); // died *on* this write
    EXPECT_EQ(map.stuckCells(), 1u);
    EXPECT_TRUE(map.stuckMask(1).bit(5));
    EXPECT_TRUE(map.stuckValues(1).bit(5));
}

TEST(CellFaultMap, StuckCellConflictsOnlyWhenImageDiffers)
{
    CellFaultMap map(uniformConfig(1.0, 0));
    CacheLine flips;
    flips.setBit(9, true);
    CacheLine image_one;
    image_one.setBit(9, true);
    map.recordWrite(3, flips, image_one); // cell 9 stuck at 1

    // Writing the stuck value again: no conflict, no extra wear.
    CellFaultMap::WriteEffect same =
        map.recordWrite(3, CacheLine{}, image_one);
    EXPECT_EQ(same.conflicts.popcount(), 0u);

    // Needing the other value: conflict.
    CellFaultMap::WriteEffect differ =
        map.recordWrite(3, CacheLine{}, CacheLine{});
    EXPECT_TRUE(differ.conflicts.bit(9));
    EXPECT_EQ(differ.conflicts.popcount(), 1u);

    // Stuck cells never wear further or re-stick.
    CellFaultMap::WriteEffect again =
        map.recordWrite(3, flips, image_one);
    EXPECT_EQ(again.newlyStuck.popcount(), 0u);
    EXPECT_EQ(map.stuckCells(), 1u);
}

TEST(CellFaultMap, RetireDropsLineState)
{
    CellFaultMap map(uniformConfig(1.0, 0));
    CacheLine flips;
    flips.setBit(0, true);
    flips.setBit(1, true);
    map.recordWrite(4, flips, CacheLine{});
    EXPECT_EQ(map.stuckCells(), 2u);
    map.retire(4);
    EXPECT_EQ(map.stuckCells(), 0u);
    EXPECT_EQ(map.stuckMask(4).popcount(), 0u);
    EXPECT_EQ(map.trackedLines(), 0u);
}

TEST(CellFaultMap, BudgetFloorBoundsEverySample)
{
    // sampleEndurance's u1 is at least 2^-53, so z >= -sqrt(106 ln 2).
    const double z_min = -std::sqrt(106.0 * std::log(2.0));
    for (double sigma : {0.1, 0.25, 0.5, 1.0, 2.0}) {
        for (double mean : {1.0, 40.0, 1e4, 1e8}) {
            FaultConfig cfg;
            cfg.meanEndurance = mean;
            cfg.enduranceSigma = sigma;
            CellFaultMap map(cfg);
            double mu = std::log(mean) - 0.5 * sigma * sigma;
            EXPECT_LE(map.budgetFloor(),
                      std::max(1.0, std::exp(mu + sigma * z_min)))
                << "mean " << mean << " sigma " << sigma;

            double lowest = map.enduranceOf(0, 0);
            for (uint64_t line = 0; line < 2048; ++line) {
                for (unsigned cell = 0; cell < CacheLine::kBits;
                     ++cell) {
                    lowest = std::min(lowest,
                                      map.enduranceOf(line, cell));
                }
            }
            EXPECT_LE(map.budgetFloor(), lowest)
                << "mean " << mean << " sigma " << sigma;
            EXPECT_GE(map.budgetFloor(), 1.0);
        }
    }
}

TEST(CellFaultMap, CellDiesOnTheWriteThatCarriesOutOfThePlanes)
{
    // Every budget is 1024 = 2^10: the planes count up to 1023, and
    // the 1024th flip both leaves them and spends the budget.
    CellFaultMap map(uniformConfig(1024.0, 0));
    ASSERT_EQ(map.budgetFloor(), 1024.0);
    CacheLine flips;
    flips.setBit(200, true);
    flips.setBit(201, true);
    CacheLine image;
    image.setBit(201, true);
    for (int i = 1; i < 1024; ++i) {
        ASSERT_EQ(map.recordWrite(5, flips, image).newlyStuck,
                  CacheLine{})
            << "write " << i;
    }
    CellFaultMap::WriteEffect effect = map.recordWrite(5, flips, image);
    EXPECT_EQ(effect.newlyStuck, flips);
    EXPECT_EQ(map.stuckValues(5), image);
    EXPECT_EQ(map.stuckCells(), 2u);
}

TEST(CellFaultMap, FloatRoundingKillsOneFlipEarlyAtTwoToThe25)
{
    // Budget 2^25: the float check rounds count 2^25 - 1 up to 2^25,
    // so the cell dies one flip before its budget. Planes holding
    // counts up to 2^25 - 1 would miss that write.
    CellFaultMap map(uniformConfig(0x1p25, 0));
    ASSERT_EQ(map.budgetFloor(), 0x1p25);
    CacheLine flips;
    flips.setBit(77, true);
    constexpr uint32_t kDeath = (uint32_t{1} << 25) - 1;
    for (uint32_t i = 1; i < kDeath; ++i) {
        if (map.recordWrite(9, flips, CacheLine{}).newlyStuck.bit(77)) {
            FAIL() << "died early at flip " << i;
        }
    }
    EXPECT_TRUE(map.recordWrite(9, flips, CacheLine{}).newlyStuck.bit(77));
}

/**
 * The eager model the map must reproduce: every budget of a line read
 * from enduranceOf() at its first touch, and plain 32-bit counts
 * checked on every flip.
 */
class ReferenceFaultMap
{
  public:
    explicit ReferenceFaultMap(const CellFaultMap &sampler)
        : sampler_(sampler)
    {}

    CellFaultMap::WriteEffect
    recordWrite(uint64_t line, const CacheLine &flips,
                const CacheLine &image)
    {
        auto [it, fresh] = lines_.try_emplace(line);
        Line &state = it->second;
        if (fresh) {
            for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
                state.budget[cell] = static_cast<float>(
                    sampler_.enduranceOf(line, cell));
            }
        }
        CellFaultMap::WriteEffect effect;
        for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
            if (state.stuck.bit(cell)) {
                if (state.value.bit(cell) != image.bit(cell)) {
                    effect.conflicts.setBit(cell, true);
                }
                continue;
            }
            if (!flips.bit(cell) ||
                static_cast<float>(++state.flips[cell]) <
                    state.budget[cell]) {
                continue;
            }
            state.stuck.setBit(cell, true);
            state.value.setBit(cell, image.bit(cell));
            effect.newlyStuck.setBit(cell, true);
            ++stuckCells_;
        }
        return effect;
    }

    void
    retire(uint64_t line)
    {
        auto it = lines_.find(line);
        if (it != lines_.end()) {
            stuckCells_ -= it->second.stuck.popcount();
            lines_.erase(it);
        }
    }

    /** First touch of @p line with @p counts already charged. */
    void
    seed(uint64_t line, const std::array<uint32_t, CacheLine::kBits> &counts)
    {
        Line &state = lines_[line];
        state.flips = counts;
        for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
            state.budget[cell] =
                static_cast<float>(sampler_.enduranceOf(line, cell));
        }
    }

    /** Flips charged to @p cell of @p line. */
    uint32_t
    flips(uint64_t line, unsigned cell) const
    {
        auto it = lines_.find(line);
        return it != lines_.end() ? it->second.flips[cell] : 0;
    }

    CacheLine
    stuckMask(uint64_t line) const
    {
        auto it = lines_.find(line);
        return it != lines_.end() ? it->second.stuck : CacheLine{};
    }

    CacheLine
    stuckValues(uint64_t line) const
    {
        auto it = lines_.find(line);
        return it != lines_.end() ? it->second.value : CacheLine{};
    }

    /** Highest flip count of any cell of @p line. */
    uint32_t
    maxFlips(uint64_t line) const
    {
        auto it = lines_.find(line);
        if (it == lines_.end()) {
            return 0;
        }
        return *std::max_element(it->second.flips.begin(),
                                 it->second.flips.end());
    }

    uint64_t stuckCells() const { return stuckCells_; }
    uint64_t trackedLines() const { return lines_.size(); }

  private:
    struct Line
    {
        std::array<uint32_t, CacheLine::kBits> flips{};
        std::array<float, CacheLine::kBits> budget{};
        CacheLine stuck;
        CacheLine value;
    };

    const CellFaultMap &sampler_;
    std::unordered_map<uint64_t, Line> lines_;
    uint64_t stuckCells_ = 0;
};

/** The plane count the map must use: counts below 2^K cannot kill. */
unsigned
planeCap(double floor)
{
    unsigned k = 0;
    while (k < 32 &&
           static_cast<float>((uint64_t{1} << (k + 1)) - 1) < floor) {
        ++k;
    }
    return k;
}

/**
 * Drive the map and the reference with one seeded stream of flip
 * masks and images over a few lines, with random retires (and so
 * re-touches), comparing everything observable after every write.
 * Sets @p overflowed when some count reached 2^K, i.e. some line left
 * the bit-plane path.
 */
void
runDifferential(double mean, double sigma, uint64_t seed,
                bool &overflowed)
{
    FaultConfig cfg;
    cfg.meanEndurance = mean;
    cfg.enduranceSigma = sigma;
    cfg.seed = seed;
    CellFaultMap map(cfg);
    ReferenceFaultMap ref(map);
    const uint64_t overflow_count = uint64_t{1} << planeCap(
                                        map.budgetFloor());

    constexpr uint64_t kLines[] = {3, 1ull << 40, 77};
    constexpr unsigned kMaxWrites = 60000;
    constexpr unsigned kWritesPastOverflow = 3000;
    Rng rng(seed * 31 + 1);
    overflowed = false;
    unsigned stop_at = kMaxWrites;
    for (unsigned w = 0; w < stop_at; ++w) {
        // Line 0 takes most writes so its counts climb fast; it is
        // retired (as a decommission would) once cells die in bulk,
        // the others at random.
        uint64_t line = kLines[rng.nextBounded(5) < 3
                                   ? 0
                                   : 1 + rng.nextBounded(2)];
        if (line == kLines[0] ? ref.stuckMask(line).popcount() > 64
                              : rng.nextBounded(1500) == 0) {
            map.retire(line);
            ref.retire(line);
        }
        CacheLine flips, image;
        unsigned shape = static_cast<unsigned>(rng.nextBounded(8));
        for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
            uint64_t bits = rng.next();
            flips.limb(l) = shape == 0   ? ~uint64_t{0}
                            : shape == 1 ? bits & rng.next()
                            : shape == 2 ? 0
                                         : bits;
            image.limb(l) = rng.next();
        }
        CellFaultMap::WriteEffect got = map.recordWrite(line, flips,
                                                        image);
        CellFaultMap::WriteEffect want = ref.recordWrite(line, flips,
                                                         image);
        ASSERT_EQ(got.newlyStuck, want.newlyStuck) << "write " << w;
        ASSERT_EQ(got.conflicts, want.conflicts) << "write " << w;
        ASSERT_EQ(map.stuckMask(line), ref.stuckMask(line))
            << "write " << w;
        ASSERT_EQ(map.stuckValues(line), ref.stuckValues(line))
            << "write " << w;
        ASSERT_EQ(map.stuckCells(), ref.stuckCells()) << "write " << w;
        ASSERT_EQ(map.trackedLines(), ref.trackedLines())
            << "write " << w;
        if (!overflowed && ref.maxFlips(line) >= overflow_count) {
            overflowed = true;
            stop_at = std::min(kMaxWrites, w + kWritesPastOverflow);
        }
    }
}

TEST(CellFaultMap, MatchesEagerReferenceModel)
{
    for (double mean : {1.0, 2.0, 40.0, 1500.0, 1e4, 1e8}) {
        for (double sigma : {0.0, 0.25, 1.0}) {
            SCOPED_TRACE(testing::Message()
                         << "mean " << mean << " sigma " << sigma);
            bool overflowed = false;
            ASSERT_NO_FATAL_FAILURE(
                runDifferential(mean, sigma, 0xfa117, overflowed));
            // Floors up to 1e4 (2^13 flips) are within the stream's
            // reach; 1e8 at sigma <= 0.25 stays on the planes.
            if (mean <= 1e4 || sigma >= 1.0) {
                EXPECT_TRUE(overflowed);
            }
        }
    }
}

TEST(CellFaultMap, MatchesEagerReferenceAtPowerOfTwoFloor)
{
    // Floor exactly 1024: the carry out of the top plane and the
    // first deaths land on the same write.
    bool overflowed = false;
    ASSERT_NO_FATAL_FAILURE(runDifferential(1024.0, 0.0, 5, overflowed));
    EXPECT_TRUE(overflowed);
}

/**
 * Seed @p counts onto a fresh line's planes, bounded by the map's
 * plane count, then write: the carry out of the top plane, and with
 * it toExact()'s deepest shifts, takes a few writes instead of 2^K.
 * Counts, stuck cells and write effects must match the eager
 * reference, seeded alike, after every write.
 */
void
runSeededTopPlanes(double mean, unsigned planes, unsigned writes,
                   uint64_t seed, bool deaths)
{
    FaultConfig cfg;
    cfg.meanEndurance = mean;
    cfg.enduranceSigma = 0.0;
    cfg.seed = seed;
    CellFaultMap map(cfg);
    ReferenceFaultMap ref(map);
    ASSERT_EQ(CellFaultMapTestPeer::maxPlanes(map), planes);

    // Every 4th cell sits 0-3 flips below 2^K and flips on every
    // write; the rest hold random counts and flip at random.
    const uint32_t top = static_cast<uint32_t>((uint64_t{1} << planes) - 1);
    Rng rng(seed);
    std::array<uint32_t, CacheLine::kBits> counts{};
    for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
        counts[cell] = cell % 4 == 0
            ? top - static_cast<uint32_t>(rng.nextBounded(4))
            : static_cast<uint32_t>(rng.next()) & top;
    }
    constexpr uint64_t kLine = 11;
    CellFaultMapTestPeer::seed(map, kLine, counts);
    ref.seed(kLine, counts);

    for (unsigned w = 0; w < writes; ++w) {
        CacheLine flips, image;
        for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
            flips.limb(l) = 0x1111111111111111ull | (rng.next() & rng.next());
            image.limb(l) = rng.next();
        }
        CellFaultMap::WriteEffect got = map.recordWrite(kLine, flips, image);
        CellFaultMap::WriteEffect want = ref.recordWrite(kLine, flips, image);
        ASSERT_EQ(got.newlyStuck, want.newlyStuck) << "write " << w;
        ASSERT_EQ(got.conflicts, want.conflicts) << "write " << w;
        ASSERT_EQ(map.stuckMask(kLine), ref.stuckMask(kLine)) << "write " << w;
        ASSERT_EQ(map.stuckCells(), ref.stuckCells()) << "write " << w;
        for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
            ASSERT_EQ(CellFaultMapTestPeer::count(map, kLine, cell),
                      ref.flips(kLine, cell))
                << "write " << w << " cell " << cell;
        }
    }
    EXPECT_EQ(map.stuckCells() > 0, deaths);
}

TEST(CellFaultMap, SeededTopPlanesMatchEagerReference)
{
    // K = 31: budgets of 2^31 + 1024 flips, so the seeded cells carry
    // out of plane 30 within four writes and die some 1024 later.
    {
        SCOPED_TRACE("K = 31");
        ASSERT_NO_FATAL_FAILURE(
            runSeededTopPlanes(2147484648.0, 31, 1100, 3, true));
    }
    // K = 32: every budget is above 2^32, so the carry out of plane
    // 31 wraps the count to zero, as a 32-bit exact count's does.
    {
        SCOPED_TRACE("K = 32");
        ASSERT_NO_FATAL_FAILURE(
            runSeededTopPlanes(1e10, 32, 8, 4, false));
    }
}

TEST(EcpCorrector, AllocatesUpToCapacityThenRefuses)
{
    EcpCorrector ecp(2);
    CacheLine one;
    one.setBit(10, true);
    EXPECT_TRUE(ecp.allocate(7, one));
    EXPECT_EQ(ecp.entriesUsed(7), 1u);

    CacheLine second;
    second.setBit(20, true);
    EXPECT_TRUE(ecp.allocate(7, second));
    EXPECT_EQ(ecp.entriesUsed(7), 2u);
    EXPECT_TRUE(ecp.remapped(7).bit(10));
    EXPECT_TRUE(ecp.remapped(7).bit(20));

    // Past capacity: refused, nothing consumed.
    CacheLine third;
    third.setBit(30, true);
    EXPECT_FALSE(ecp.allocate(7, third));
    EXPECT_EQ(ecp.entriesUsed(7), 2u);
    EXPECT_FALSE(ecp.remapped(7).bit(30));
    EXPECT_EQ(ecp.totalEntriesUsed(), 2u);
}

TEST(EcpCorrector, MultiCellAllocationIsAllOrNothing)
{
    EcpCorrector ecp(2);
    CacheLine three;
    three.setBit(1, true);
    three.setBit(2, true);
    three.setBit(3, true);
    EXPECT_FALSE(ecp.allocate(0, three));
    EXPECT_EQ(ecp.entriesUsed(0), 0u);

    CacheLine two;
    two.setBit(1, true);
    two.setBit(2, true);
    EXPECT_TRUE(ecp.allocate(0, two));
    EXPECT_EQ(ecp.entriesUsed(0), 2u);
}

TEST(EcpCorrector, RetireReleasesEntries)
{
    EcpCorrector ecp(4);
    CacheLine cells;
    cells.setBit(0, true);
    cells.setBit(1, true);
    ecp.allocate(9, cells);
    EXPECT_EQ(ecp.totalEntriesUsed(), 2u);
    ecp.retire(9);
    EXPECT_EQ(ecp.totalEntriesUsed(), 0u);
    EXPECT_EQ(ecp.entriesUsed(9), 0u);
}

TEST(LineDecommissioner, IdentityUntilDecommissioned)
{
    LineDecommissioner decom(1000);
    EXPECT_EQ(decom.physicalFor(42), 42u);
    EXPECT_FALSE(decom.isRemapped(42));
    EXPECT_EQ(decom.decommissionedLines(), 0u);

    EXPECT_EQ(decom.decommission(42), 1000u);
    EXPECT_EQ(decom.physicalFor(42), 1000u);
    EXPECT_TRUE(decom.isRemapped(42));
    EXPECT_EQ(decom.decommissionedLines(), 1u);
    // Other lines untouched.
    EXPECT_EQ(decom.physicalFor(43), 43u);
}

TEST(LineDecommissioner, SparesThemselvesCanBeReplaced)
{
    LineDecommissioner decom(1000);
    decom.decommission(5);           // 5 -> 1000
    EXPECT_EQ(decom.decommission(5), 1001u); // worn spare replaced
    EXPECT_EQ(decom.physicalFor(5), 1001u);
    EXPECT_EQ(decom.decommissionedLines(), 2u);
}

TEST(FaultDomain, CorrectsThenDecommissionsPastEcpCapacity)
{
    FaultConfig cfg = uniformConfig(1.0, 1); // first flip kills a cell
    FaultDomain domain(cfg);

    // Write 1: cell 0 flips and dies, stuck at the image value 0.
    CacheLine flip0;
    flip0.setBit(0, true);
    FaultDomain::Outcome o1 = domain.onWrite(8, flip0, CacheLine{});
    EXPECT_EQ(o1.correctedCells, 0u);
    EXPECT_FALSE(o1.uncorrectable);

    // Write 2: image needs cell 0 = 1 (conflict -> ECP corrects) and
    // kills cell 1 (stuck at 1).
    CacheLine flip1;
    flip1.setBit(1, true);
    CacheLine image2;
    image2.setBit(0, true);
    image2.setBit(1, true);
    FaultDomain::Outcome o2 = domain.onWrite(8, flip1, image2);
    EXPECT_EQ(o2.correctedCells, 1u);
    EXPECT_FALSE(o2.uncorrectable);
    EXPECT_EQ(domain.stats().correctedWrites, 1u);

    // Write 3: cell 0 is covered by its replacement cell, but cell 1
    // now conflicts and the single ECP entry is spent: uncorrectable,
    // line decommissioned.
    FaultDomain::Outcome o3 = domain.onWrite(8, CacheLine{},
                                             CacheLine{});
    EXPECT_TRUE(o3.uncorrectable);
    EXPECT_EQ(domain.stats().uncorrectableErrors, 1u);
    EXPECT_EQ(domain.stats().firstUncorrectableWrite, 3u);
    EXPECT_EQ(domain.stats().decommissionedLines, 1u);
    EXPECT_TRUE(domain.decommissioner().isRemapped(8));
    // The retired line's stuck cells left the live population.
    EXPECT_EQ(domain.stats().stuckCells, 0u);

    // Write 4 lands on the fresh spare: clean slate.
    FaultDomain::Outcome o4 = domain.onWrite(8, CacheLine{},
                                             CacheLine{});
    EXPECT_FALSE(o4.uncorrectable);
    EXPECT_EQ(o4.correctedCells, 0u);
}

TEST(FaultDomain, RemappedCellsAbsorbConflictsSilently)
{
    FaultConfig cfg = uniformConfig(1.0, 2);
    FaultDomain domain(cfg);
    CacheLine flip0;
    flip0.setBit(0, true);
    domain.onWrite(1, flip0, CacheLine{}); // cell 0 stuck at 0

    CacheLine wants1;
    wants1.setBit(0, true);
    FaultDomain::Outcome first = domain.onWrite(1, CacheLine{}, wants1);
    EXPECT_EQ(first.correctedCells, 1u);

    // Same conflict again: replacement cell absorbs it, no new entry.
    FaultDomain::Outcome second =
        domain.onWrite(1, CacheLine{}, wants1);
    EXPECT_EQ(second.correctedCells, 0u);
    EXPECT_EQ(domain.stats().correctedCells, 1u);
    EXPECT_EQ(domain.stats().correctedWrites, 1u);
}

TEST(MemorySystem, FaultDomainAbsentWhenDisabled)
{
    FastOtpEngine otp(1);
    auto scheme = makeScheme("encr", otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    MemorySystem memory(*scheme, wl);
    EXPECT_EQ(memory.fault(), nullptr);
    CacheLine data;
    data.setField(0, 64, 0xabcd);
    WriteOutcome out = memory.write(0, data);
    EXPECT_EQ(out.faultCorrectedCells, 0u);
    EXPECT_FALSE(out.faultUncorrectable);
}

TEST(MemorySystem, WearsOutDecommissionsAndKeepsServing)
{
    FastOtpEngine otp(2);
    auto scheme = makeScheme("encr", otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    FaultConfig fault = uniformConfig(20.0, 2);
    MemorySystem memory(*scheme, wl, PcmConfig{}, {}, fault);
    ASSERT_NE(memory.fault(), nullptr);

    Rng rng(11);
    CacheLine data;
    bool saw_uncorrectable = false;
    for (int i = 0; i < 400; ++i) {
        data.setField(0, 64, rng.next());
        saw_uncorrectable |=
            memory.write(7, data).faultUncorrectable;
    }
    const FaultStats &fs = memory.fault()->stats();
    EXPECT_TRUE(saw_uncorrectable);
    EXPECT_GT(fs.uncorrectableErrors, 0u);
    EXPECT_GT(fs.decommissionedLines, 0u);
    EXPECT_GT(fs.correctedWrites, 0u);
    EXPECT_GT(fs.firstUncorrectableWrite, 0u);
    EXPECT_LE(fs.firstUncorrectableWrite, 400u);

    // The logical layer is unaffected: reads still decrypt correctly.
    EXPECT_EQ(memory.read(7), data);
}

TEST(MemorySystem, FaultInjectionIsDeterministic)
{
    auto run = [] {
        FastOtpEngine otp(3);
        auto scheme = makeScheme("deuce", otp);
        WearLevelingConfig wl;
        wl.verticalEnabled = false;
        FaultConfig fault;
        fault.enabled = true;
        fault.meanEndurance = 50.0;
        fault.enduranceSigma = 0.2;
        fault.ecpEntries = 2;
        MemorySystem memory(*scheme, wl, PcmConfig{}, {}, fault);
        Rng rng(23);
        CacheLine data;
        for (int i = 0; i < 600; ++i) {
            data.setField(0, 64, rng.next());
            memory.write(rng.nextBounded(4), data);
        }
        return memory.fault()->stats();
    };
    FaultStats a = run();
    FaultStats b = run();
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.stuckCells, b.stuckCells);
    EXPECT_EQ(a.correctedWrites, b.correctedWrites);
    EXPECT_EQ(a.correctedCells, b.correctedCells);
    EXPECT_EQ(a.uncorrectableErrors, b.uncorrectableErrors);
    EXPECT_EQ(a.decommissionedLines, b.decommissionedLines);
    EXPECT_EQ(a.firstUncorrectableWrite, b.firstUncorrectableWrite);
}

TEST(Report, FaultFieldsAppearOnlyWhenModelRan)
{
    ExperimentRow row;
    row.bench = "mcf";
    row.scheme = "Encr";
    std::string disabled = experimentRowJson(row);
    EXPECT_EQ(disabled.find("stuck_cells"), std::string::npos);
    EXPECT_EQ(disabled.find("writes_to_first_uncorrectable"),
              std::string::npos);

    row.faultEnabled = true;
    row.stuckCells = 3;
    row.correctedWrites = 2;
    row.uncorrectableErrors = 1;
    row.decommissionedLines = 1;
    row.writesToFirstUncorrectable = 1234;
    std::string enabled = experimentRowJson(row);
    EXPECT_NE(enabled.find("\"stuck_cells\":3"), std::string::npos);
    EXPECT_NE(enabled.find("\"corrected_writes\":2"),
              std::string::npos);
    EXPECT_NE(enabled.find("\"uncorrectable_errors\":1"),
              std::string::npos);
    EXPECT_NE(enabled.find("\"decommissioned_lines\":1"),
              std::string::npos);
    EXPECT_NE(
        enabled.find("\"writes_to_first_uncorrectable\":1234"),
        std::string::npos);
}

} // namespace
} // namespace deuce
