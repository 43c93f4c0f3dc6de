/**
 * @file
 * Unit tests for RunningStat.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"

namespace deuce
{
namespace
{

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStat, EmptyMinMaxPanics)
{
    // min()/max() of an empty stat used to silently return 0.0 — a
    // plausible-looking but wrong extremum. Emptiness is explicit now.
    RunningStat s;
    EXPECT_THROW(s.min(), PanicError);
    EXPECT_THROW(s.max(), PanicError);
    s.add(4.0);
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s.min(), 4.0);
    EXPECT_EQ(s.max(), 4.0);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_THROW(s.min(), PanicError);
}

TEST(RunningStat, KnownSequence)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.add(x);
    }
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    // Sample variance of this classic sequence is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(-3.5);
    EXPECT_EQ(s.mean(), -3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), -3.5);
    EXPECT_EQ(s.max(), -3.5);
}

TEST(RunningStat, ClearResets)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStat, NumericallyStableOnLargeOffsets)
{
    RunningStat s;
    const double base = 1e12;
    for (int i = 0; i < 1000; ++i) {
        s.add(base + (i % 2));
    }
    EXPECT_NEAR(s.mean(), base + 0.5, 1e-3);
    EXPECT_NEAR(s.variance(), 0.25, 1e-3);
}

TEST(RunningStat, MergeMatchesUnionOfSamples)
{
    // a holds 1..4, b holds 5..10; merging must agree with one
    // accumulator fed the union (exactly for the integer-ish count /
    // sum / min / max; to ulps for mean and variance).
    RunningStat a, b, whole;
    for (int i = 1; i <= 10; ++i) {
        (i <= 4 ? a : b).add(i);
        whole.add(i);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_EQ(a.sum(), whole.sum());
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
}

TEST(RunningStat, MergeWithEmptySides)
{
    RunningStat a, empty;
    a.add(2.0);
    a.add(4.0);

    RunningStat intoEmpty;
    intoEmpty.merge(a); // empty.merge(filled) copies
    EXPECT_EQ(intoEmpty.count(), 2u);
    EXPECT_EQ(intoEmpty.mean(), 3.0);
    EXPECT_EQ(intoEmpty.min(), 2.0);

    a.merge(empty); // filled.merge(empty) is a no-op
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.mean(), 3.0);

    empty.merge(RunningStat{}); // empty.merge(empty) stays empty
    EXPECT_TRUE(empty.empty());
}

} // namespace
} // namespace deuce
