/**
 * @file
 * Unit tests for the live-telemetry layer: the atomic log2 histogram
 * and its snapshots, the SLO burn-rate monitor, and the sampler's
 * snapshot/delta arithmetic and Prometheus export under concurrent
 * writers, plus the atomic file writer the export rewrites through.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/output.hh"
#include "obs/registry.hh"
#include "obs/telemetry.hh"

namespace deuce
{
namespace obs
{
namespace
{

TEST(AtomicLog2Histogram, BucketGeometryMatchesLog2)
{
    EXPECT_EQ(AtomicLog2Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(AtomicLog2Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(AtomicLog2Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(AtomicLog2Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(AtomicLog2Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(AtomicLog2Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(AtomicLog2Histogram::bucketIndex(1024), 11u);
    // add() clamps the top of the range into the last stored bucket.
    EXPECT_EQ(AtomicLog2Histogram::bucketIndex(~0ull), 64u);
}

TEST(AtomicLog2Histogram, SnapshotCountsSumsAndBounds)
{
    AtomicLog2Histogram h;
    for (uint64_t x : {5ull, 9ull, 9ull, 300ull}) {
        h.add(x);
    }
    HistogramSnapshot s = HistogramSnapshot::of(h);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_EQ(s.sum(), 323.0);
    EXPECT_DOUBLE_EQ(s.mean(), 323.0 / 4);
    // Exact min/max clamp the interpolated extremes.
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 300.0);
    double p50 = s.percentile(0.5);
    EXPECT_GE(p50, 5.0);
    EXPECT_LE(p50, 16.0); // both 9s land in [8,16)
}

TEST(HistogramSnapshot, MergeAndDeltaCommute)
{
    AtomicLog2Histogram a, b;
    for (int i = 0; i < 10; ++i) {
        a.add(100);
    }
    HistogramSnapshot before = HistogramSnapshot::of(a);
    for (int i = 0; i < 5; ++i) {
        a.add(100000);
        b.add(7);
    }

    HistogramSnapshot after = HistogramSnapshot::of(a);
    HistogramSnapshot window = after.deltaSince(before);
    EXPECT_EQ(window.count(), 5u);
    EXPECT_EQ(window.sum(), 5.0 * 100000);

    HistogramSnapshot merged = HistogramSnapshot::of(a);
    merged.merge(HistogramSnapshot::of(b));
    EXPECT_EQ(merged.count(), 20u);
    EXPECT_EQ(merged.sum(), 10.0 * 100 + 5.0 * 100000 + 5.0 * 7);
}

TEST(HistogramSnapshot, FractionAboveAtBucketEdgesIsExact)
{
    AtomicLog2Histogram h;
    for (int i = 0; i < 17; ++i) {
        h.add(1); // bucket [1,2)
    }
    for (int i = 0; i < 3; ++i) {
        h.add(1024); // bucket [1024,2048)
    }
    HistogramSnapshot s = HistogramSnapshot::of(h);
    // 512 falls in an empty bucket, so no interpolation error: the
    // fraction above is exactly the 1024-sample share.
    EXPECT_DOUBLE_EQ(s.fractionAbove(512.0), 3.0 / 20.0);
    EXPECT_DOUBLE_EQ(s.fractionAbove(1e9), 0.0);
}

/** A window with @p bad of @p total samples above 512. */
HistogramSnapshot
windowWithBadFraction(unsigned bad, unsigned total)
{
    AtomicLog2Histogram h;
    for (unsigned i = 0; i < total - bad; ++i) {
        h.add(1);
    }
    for (unsigned i = 0; i < bad; ++i) {
        h.add(1024);
    }
    return HistogramSnapshot::of(h);
}

TEST(SloMonitor, BurnRateTriggerAndClearEdges)
{
    SloMonitor mon;
    SloTarget target;
    target.p99Target = 512;
    target.budgetFraction = 0.10;
    target.burnAlert = 2.0;
    target.burnClear = 1.0;
    mon.setTarget(3, target);
    ASSERT_TRUE(mon.hasTarget(3));
    EXPECT_FALSE(mon.hasTarget(4));

    // Burn 1.5: above clear, below alert — nothing happens.
    auto v = mon.observe(3, windowWithBadFraction(3, 20));
    EXPECT_DOUBLE_EQ(v.burnRate, 1.5);
    EXPECT_FALSE(v.firing);
    EXPECT_FALSE(v.fired);

    // Burn 2.0 is the trigger edge (fire at >= alert).
    v = mon.observe(3, windowWithBadFraction(4, 20));
    EXPECT_DOUBLE_EQ(v.burnRate, 2.0);
    EXPECT_TRUE(v.fired);
    EXPECT_TRUE(v.firing);
    EXPECT_TRUE(mon.firing(3));
    EXPECT_EQ(mon.alertsFired(), 1u);

    // Hysteresis: burn 1.5 is below alert but not below clear, so
    // the alert keeps firing (no flap), and re-crossing the alert
    // threshold does not double-count.
    v = mon.observe(3, windowWithBadFraction(3, 20));
    EXPECT_TRUE(v.firing);
    EXPECT_FALSE(v.fired);
    v = mon.observe(3, windowWithBadFraction(10, 20));
    EXPECT_TRUE(v.firing);
    EXPECT_FALSE(v.fired);
    EXPECT_EQ(mon.alertsFired(), 1u);

    // An empty window leaves the state unchanged.
    v = mon.observe(3, HistogramSnapshot());
    EXPECT_TRUE(v.firing);
    EXPECT_FALSE(v.cleared);

    // Burn 1.0 is not yet the clear edge (clear at < clear)...
    v = mon.observe(3, windowWithBadFraction(2, 20));
    EXPECT_DOUBLE_EQ(v.burnRate, 1.0);
    EXPECT_TRUE(v.firing);
    // ...burn 0.5 is.
    v = mon.observe(3, windowWithBadFraction(1, 20));
    EXPECT_TRUE(v.cleared);
    EXPECT_FALSE(v.firing);
    EXPECT_FALSE(mon.firing(3));
    EXPECT_EQ(mon.alertsCleared(), 1u);

    // A tenant with no target never alerts.
    v = mon.observe(9, windowWithBadFraction(20, 20));
    EXPECT_FALSE(v.fired);
    EXPECT_FALSE(v.firing);
}

TEST(TelemetrySampler, SnapshotDeltaDeterminismUnderThreads)
{
    constexpr unsigned kThreads = 4;
    constexpr uint64_t kPerThread = 20000;

    std::vector<std::atomic<uint64_t>> counters(kThreads);
    std::vector<AtomicLog2Histogram> hists(kThreads);

    StatRegistry reg;
    for (unsigned t = 0; t < kThreads; ++t) {
        reg.addIntValue("tel.worker" + std::to_string(t) + ".ops",
                        "ops by one worker", [&counters, t] {
                            return counters[t].load(
                                std::memory_order_relaxed);
                        });
    }

    TelemetryConfig cfg; // no sinks: pure in-memory sampling
    TelemetrySampler sampler(reg, cfg);
    std::vector<const AtomicLog2Histogram *> parts;
    for (const AtomicLog2Histogram &h : hists) {
        parts.push_back(&h);
    }
    sampler.addLatencySource("tel.lat", parts);

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                hists[t].add(100 + (i & 1023));
                counters[t].fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Sample live: every stat must read monotone, and the per-window
    // deltas must sum to exactly the end totals.
    std::vector<double> prev(kThreads, 0.0);
    std::vector<double> deltaSum(kThreads, 0.0);
    uint64_t windowSum = 0;
    for (int tick = 0; tick < 50; ++tick) {
        TelemetrySampler::Sample s = sampler.sampleOnce();
        ASSERT_EQ(s.values.size(), kThreads);
        for (unsigned t = 0; t < kThreads; ++t) {
            EXPECT_TRUE(s.values[t].monotone);
            EXPECT_GE(s.values[t].value, prev[t]) << "non-monotone";
            EXPECT_DOUBLE_EQ(s.values[t].delta,
                             s.values[t].value - prev[t]);
            prev[t] = s.values[t].value;
            deltaSum[t] += s.values[t].delta;
        }
        ASSERT_EQ(s.latencies.size(), 1u);
        windowSum += s.latencies[0].windowCount;
    }
    for (std::thread &w : workers) {
        w.join();
    }

    TelemetrySampler::Sample end = sampler.sampleOnce();
    for (unsigned t = 0; t < kThreads; ++t) {
        deltaSum[t] += end.values[t].delta;
        EXPECT_DOUBLE_EQ(end.values[t].value,
                         static_cast<double>(kPerThread));
        EXPECT_DOUBLE_EQ(deltaSum[t],
                         static_cast<double>(kPerThread))
            << "window deltas must sum to the end total";
    }
    windowSum += end.latencies[0].windowCount;
    EXPECT_EQ(end.latencies[0].count, kThreads * kPerThread);
    EXPECT_EQ(windowSum, kThreads * kPerThread);
    EXPECT_GT(end.latencies[0].p99, 0.0);
}

TEST(TelemetrySampler, PrometheusExportRoundTrips)
{
    std::atomic<uint64_t> ops{12345};
    StatRegistry reg;
    reg.addIntValue("tel.prom.ops", "ops", [&ops] {
        return ops.load(std::memory_order_relaxed);
    });
    reg.addFormula("tel.prom.ratio", "derived", [] { return 0.5; });

    TelemetryConfig cfg;
    TelemetrySampler sampler(reg, cfg);
    AtomicLog2Histogram h;
    h.add(1000);
    h.add(3000);
    sampler.addLatencySource("tel.prom.lat", {&h});
    sampler.addQueueSource("tel.prom.q", [] { return uint64_t(7); },
                           16);

    TelemetrySampler::Sample s = sampler.sampleOnce();
    std::stringstream out;
    sampler.writeProm(out, s);

    // Round-trip parse of the text exposition: "# TYPE name t" lines
    // announce each metric, every sample line is "name value", and
    // every announced name is sampled.
    std::map<std::string, std::string> types;
    std::map<std::string, double> values;
    std::string line;
    while (std::getline(out, line)) {
        ASSERT_FALSE(line.empty());
        std::stringstream ls(line);
        if (line[0] == '#') {
            std::string hash, kw, name, type;
            ls >> hash >> kw >> name >> type;
            ASSERT_EQ(kw, "TYPE") << line;
            ASSERT_TRUE(type == "counter" || type == "gauge") << line;
            types[name] = type;
        } else {
            std::string name;
            double v = 0;
            ls >> name >> v;
            ASSERT_TRUE(ls) << "unparseable sample line: " << line;
            values[name] = v;
        }
    }
    for (const auto &[name, type] : types) {
        EXPECT_TRUE(values.count(name))
            << name << " announced but never sampled";
    }
    EXPECT_EQ(types.at("deuce_tel_prom_ops"), "counter");
    EXPECT_EQ(values.at("deuce_tel_prom_ops"), 12345.0);
    EXPECT_EQ(types.at("deuce_tel_prom_ratio"), "gauge");
    EXPECT_EQ(values.at("deuce_tel_prom_ratio"), 0.5);
    EXPECT_EQ(values.at("deuce_tel_prom_lat_count"), 2.0);
    EXPECT_EQ(values.at("deuce_tel_prom_q_depth"), 7.0);
}

TEST(TelemetrySampler, SinkFilesAreWrittenAndAppended)
{
    std::string base = ::testing::TempDir() + "deuce_tel_test";
    TelemetryConfig cfg;
    cfg.promPath = base + ".prom";
    cfg.jsonlPath = base + ".jsonl";
    std::remove(cfg.promPath.c_str());
    std::remove(cfg.jsonlPath.c_str());

    std::atomic<uint64_t> ops{0};
    StatRegistry reg;
    reg.addIntValue("tel.sink.ops", "ops", [&ops] {
        return ops.load(std::memory_order_relaxed);
    });
    {
        TelemetrySampler sampler(reg, cfg);
        ops.store(10);
        sampler.sampleOnce();
        ops.store(25);
        sampler.sampleOnce();
    }

    std::ifstream prom(cfg.promPath);
    ASSERT_TRUE(prom.is_open());
    std::stringstream promText;
    promText << prom.rdbuf();
    // The prom file is rewritten per tick: only the latest reading.
    EXPECT_NE(promText.str().find("deuce_tel_sink_ops 25"),
              std::string::npos);
    EXPECT_EQ(promText.str().find("deuce_tel_sink_ops 10"),
              std::string::npos);

    // The JSONL sink appends: both ticks survive, in order.
    std::ifstream jsonl(cfg.jsonlPath);
    ASSERT_TRUE(jsonl.is_open());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(jsonl, line)) {
        lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"v\":10"), std::string::npos);
    EXPECT_NE(lines[1].find("\"v\":25"), std::string::npos);
    EXPECT_NE(lines[1].find("\"d\":15"), std::string::npos);

    std::remove(cfg.promPath.c_str());
    std::remove(cfg.jsonlPath.c_str());
}

TEST(AtomicFileWriter, FailedWriteLeavesTheLiveFileAlone)
{
    std::string path = ::testing::TempDir() + "deuce_atomic_write.txt";
    ASSERT_TRUE(writeFileAtomically(
        path, [](std::ostream &os) { os << "good\n"; }));
    // A write that fails part-way must not be renamed over the file a
    // reader (a Prometheus scraper) may be looking at.
    EXPECT_FALSE(writeFileAtomically(path, [](std::ostream &os) {
        os << "torn";
        os.setstate(std::ios::badbit);
    }));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "good\n");
    EXPECT_FALSE(std::ifstream(path + ".tmp").is_open())
        << "a failed write must not leave its temp file behind";
    std::remove(path.c_str());
}

TEST(TelemetrySampler, ThreadedSamplerStopsWithFinalSample)
{
    std::atomic<uint64_t> ops{0};
    StatRegistry reg;
    reg.addIntValue("tel.thread.ops", "ops", [&ops] {
        return ops.load(std::memory_order_relaxed);
    });
    TelemetryConfig cfg;
    cfg.periodMs = 1;
    TelemetrySampler sampler(reg, cfg);
    sampler.start();
    sampler.start(); // idempotent
    ops.store(42);
    sampler.stop();
    // stop() takes one final synchronous sample, so even a run
    // shorter than one period exports the end state.
    EXPECT_GE(sampler.samplesTaken(), 1u);
    ASSERT_EQ(sampler.lastSample().values.size(), 1u);
    EXPECT_EQ(sampler.lastSample().values[0].value, 42.0);
    sampler.stop(); // idempotent
}

TEST(TelemetrySampler, QueueWatermarkBreachesAreCounted)
{
    StatRegistry reg;
    TelemetryConfig cfg;
    TelemetrySampler sampler(reg, cfg);
    std::atomic<uint64_t> depth{0};
    sampler.addQueueSource(
        "tel.q", [&depth] { return depth.load(); }, 100, 0.9);

    depth.store(89);
    TelemetrySampler::Sample s = sampler.sampleOnce();
    ASSERT_EQ(s.queues.size(), 1u);
    EXPECT_FALSE(s.queues[0].breached);
    EXPECT_EQ(sampler.watermarkBreaches(), 0u);

    depth.store(90); // at the watermark: breached
    s = sampler.sampleOnce();
    EXPECT_TRUE(s.queues[0].breached);
    EXPECT_EQ(s.queues[0].depth, 90u);
    EXPECT_EQ(s.queues[0].capacity, 100u);
    EXPECT_EQ(sampler.watermarkBreaches(), 1u);
}

TEST(PrometheusName, SanitizesDottedNames)
{
    EXPECT_EQ(prometheusName("serve.shard0.served"),
              "deuce_serve_shard0_served");
    EXPECT_EQ(prometheusName("a-b c.d"), "deuce_a_b_c_d");
}

} // namespace
} // namespace obs
} // namespace deuce
