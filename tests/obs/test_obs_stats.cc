/**
 * @file
 * Unit tests for the obs stat primitives and the StatRegistry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"
#include "obs/stat.hh"

namespace deuce
{
namespace obs
{
namespace
{

TEST(Scalar, OwnedIntFormatsLikeClassicDump)
{
    Scalar s("system.pcm.writes", "line writebacks serviced",
             ValueKind::Int);
    s += 50;
    std::ostringstream os;
    s.dumpText(os);
    // Classic layout: name left-padded to 44, value right-aligned in
    // 16, then "  # <desc>".
    std::string expected = "system.pcm.writes" +
                           std::string(44 - 17, ' ') +
                           std::string(16 - 2, ' ') + "50" +
                           "  # line writebacks serviced\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(Scalar, FloatKindUsesStreamDoubleFormatting)
{
    Scalar s("x.pct", "a percentage");
    s.set(13.22265625);
    std::ostringstream os;
    s.dumpText(os);
    // Default ostream precision (6 significant digits), exactly what
    // the pre-registry dump produced for doubles.
    EXPECT_NE(os.str().find("13.2227"), std::string::npos);
}

TEST(Scalar, FunctorBackedReadsSourceAndRefusesMutation)
{
    uint64_t counter = 7;
    Scalar s("x.count", "functor-backed",
             [&counter] { return static_cast<double>(counter); },
             ValueKind::Int);
    EXPECT_EQ(s.value(), 7.0);
    counter = 9;
    EXPECT_EQ(s.value(), 9.0);
    EXPECT_THROW(s += 1, PanicError);
    EXPECT_THROW(s.set(0), PanicError);
}

TEST(Formula, EvaluatesOnDemand)
{
    double num = 1.0;
    Formula f("x.ratio", "ratio", [&num] { return num / 4.0; });
    EXPECT_DOUBLE_EQ(f.value(), 0.25);
    num = 2.0;
    EXPECT_DOUBLE_EQ(f.value(), 0.5);
    EXPECT_EQ(f.jsonValue(), "0.5");
}

TEST(Log2Histogram, BucketEdges)
{
    Log2Histogram h;
    h.add(0);   // bucket 0: [0, 1)
    h.add(0);   // bucket 0
    h.add(1);   // bucket 1: [1, 2)
    h.add(2);   // bucket 2: [2, 4)
    h.add(3);   // bucket 2
    h.add(4);   // bucket 3: [4, 8)
    h.add(7);   // bucket 3
    h.add(8);   // bucket 4: [8, 16)
    h.add(100); // bucket 7: [64, 128)

    EXPECT_EQ(h.count(), 9u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.bucketCount(7), 1u);
    EXPECT_EQ(h.numBuckets(), 8u);
    EXPECT_DOUBLE_EQ(Log2Histogram::bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(Log2Histogram::bucketHi(0), 1.0);
    EXPECT_DOUBLE_EQ(Log2Histogram::bucketLo(3), 4.0);
    EXPECT_DOUBLE_EQ(Log2Histogram::bucketHi(3), 8.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);

    // The top of the uint64_t range clamps into the last bucket.
    h.add(~0ull);
    EXPECT_EQ(h.bucketCount(Log2Histogram::kBuckets - 1), 1u);
    EXPECT_EQ(h.numBuckets(), Log2Histogram::kBuckets);
}

TEST(Log2Histogram, PercentilesBracketTheDistribution)
{
    Log2Histogram h;
    for (uint64_t i = 1; i <= 100; ++i) {
        h.add(i);
    }
    // Log2 buckets are coarse; the interpolated percentile must land
    // within the bucket containing the exact order statistic.
    EXPECT_GE(h.percentile(0.5), 32.0);
    EXPECT_LE(h.percentile(0.5), 64.0);
    EXPECT_GE(h.percentile(0.99), 64.0);
    EXPECT_LE(h.percentile(0.99), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Log2Histogram, EmptyAndClear)
{
    Log2Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_THROW(h.min(), PanicError);
    h.add(5);
    EXPECT_FALSE(h.empty());
    h.clear();
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.numBuckets(), 0u);
}

TEST(Log2Histogram, MergeFromAddsBucketsExactly)
{
    Log2Histogram a, b, whole;
    for (uint64_t x : {0, 1, 3, 3}) {
        a.add(x);
        whole.add(x);
    }
    for (uint64_t x : {2, 100}) {
        b.add(x);
        whole.add(x);
    }
    a.mergeFrom(b);
    // Bucket counts add exactly — the property the serving
    // determinism gate relies on when merging shard histograms.
    ASSERT_EQ(a.numBuckets(), whole.numBuckets());
    for (unsigned i = 0; i < whole.numBuckets(); ++i) {
        EXPECT_EQ(a.bucketCount(i), whole.bucketCount(i));
    }
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_EQ(a.sum(), whole.sum());
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());

    // Merging an empty histogram changes nothing; merging into an
    // empty one copies.
    Log2Histogram empty;
    a.mergeFrom(empty);
    EXPECT_EQ(a.count(), whole.count());
    Log2Histogram fresh;
    fresh.mergeFrom(whole);
    EXPECT_EQ(fresh.count(), whole.count());
    EXPECT_EQ(fresh.bucketCount(2), whole.bucketCount(2));
}

TEST(Histogram, TextDumpEmitsSummaryLines)
{
    Log2Histogram data;
    data.add(1);
    data.add(2);
    data.add(4);
    Histogram h("x.slots", "write slots per write", data);
    std::ostringstream os;
    h.dumpText(os);
    std::string out = os.str();
    EXPECT_NE(out.find("x.slots.count"), std::string::npos);
    EXPECT_NE(out.find("x.slots.mean"), std::string::npos);
    EXPECT_NE(out.find("x.slots.min"), std::string::npos);
    EXPECT_NE(out.find("x.slots.max"), std::string::npos);
    EXPECT_NE(out.find("x.slots.p50"), std::string::npos);
    EXPECT_NE(out.find("x.slots.p99"), std::string::npos);

    // A view: samples added after registration show in the dump.
    data.add(8);
    EXPECT_EQ(h.data().count(), 4u);
}

TEST(Histogram, EmptyOmitsMinMaxPercentiles)
{
    Log2Histogram data;
    Histogram h("x.empty", "never sampled", data);
    std::ostringstream os;
    h.dumpText(os);
    std::string out = os.str();
    EXPECT_NE(out.find("x.empty.count"), std::string::npos);
    EXPECT_EQ(out.find("x.empty.min"), std::string::npos);
    EXPECT_EQ(out.find("x.empty.p50"), std::string::npos);
}

TEST(StatRegistry, DumpsInRegistrationOrder)
{
    uint64_t writes = 50;
    StatRegistry reg;
    reg.addIntValue("sys.b", "second", [&] { return writes; });
    reg.addIntValue("sys.a", "first", [&] { return writes + 1; });
    std::ostringstream os;
    reg.dumpText(os);
    std::string out = os.str();
    EXPECT_LT(out.find("sys.b"), out.find("sys.a"));
}

TEST(StatRegistry, DuplicateNameIsFatal)
{
    StatRegistry reg;
    reg.addIntValue("sys.x", "one", [] { return uint64_t{1}; });
    EXPECT_THROW(
        reg.addIntValue("sys.x", "two", [] { return uint64_t{2}; }),
        FatalError);
}

TEST(StatRegistry, VisibleWhenGatesDump)
{
    bool show = false;
    StatRegistry reg;
    reg.addIntValue("sys.gated", "conditional",
                    [] { return uint64_t{3}; })
        .visibleWhen([&show] { return show; });

    std::ostringstream hidden;
    reg.dumpText(hidden);
    EXPECT_EQ(hidden.str(), "");

    show = true;
    std::ostringstream shown;
    reg.dumpText(shown);
    EXPECT_NE(shown.str().find("sys.gated"), std::string::npos);
}

TEST(StatRegistry, FindAndSize)
{
    StatRegistry reg;
    reg.addFormula("a.b.c", "leaf", [] { return 1.0; });
    EXPECT_EQ(reg.size(), 1u);
    ASSERT_NE(reg.find("a.b.c"), nullptr);
    EXPECT_EQ(reg.find("a.b.c")->desc(), "leaf");
    EXPECT_EQ(reg.find("a.b"), nullptr);
}

TEST(StatRegistry, JsonMirrorsDottedHierarchy)
{
    StatRegistry reg;
    reg.addIntValue("system.pcm.writes", "writes",
                    [] { return uint64_t{50}; });
    reg.addFormula("system.pcm.avg", "avg", [] { return 1.5; });
    reg.addIntValue("system.timing.reads", "reads",
                    [] { return uint64_t{7}; });
    std::ostringstream os;
    reg.dumpJson(os);
    EXPECT_EQ(os.str(),
              "{\"system\":{\"pcm\":{\"writes\":50,\"avg\":1.5},"
              "\"timing\":{\"reads\":7}}}\n");
}

TEST(StatRegistry, JsonConflictingLeafAndGroupIsFatal)
{
    StatRegistry reg;
    reg.addIntValue("a.b", "leaf", [] { return uint64_t{1}; });
    reg.addIntValue("a.b.c", "child under a leaf",
                    [] { return uint64_t{2}; });
    std::ostringstream os;
    EXPECT_THROW(reg.dumpJson(os), FatalError);
}

TEST(StatRegistry, ThreadPoolCountersRegister)
{
    ThreadPool pool(2);
    std::atomic<int> hits{0};
    for (int i = 0; i < 16; ++i) {
        pool.submit([&hits] { ++hits; });
    }
    pool.wait();
    EXPECT_EQ(hits.load(), 16);

    StatRegistry reg;
    registerStats(reg, pool, "system.pool");
    const Stat *tasks = reg.find("system.pool.tasksExecuted");
    ASSERT_NE(tasks, nullptr);
    EXPECT_EQ(tasks->jsonValue(), "16");
    ASSERT_NE(reg.find("system.pool.workers"), nullptr);
    EXPECT_EQ(reg.find("system.pool.workers")->jsonValue(), "2");
    ASSERT_NE(reg.find("system.pool.steals"), nullptr);
}

} // namespace
} // namespace obs
} // namespace deuce
