/**
 * @file
 * Unit tests for the progress/heartbeat reporter, alone and driven by
 * a TelemetrySampler thread.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/telemetry.hh"

namespace deuce
{
namespace obs
{
namespace
{

ProgressOptions
quietOptions()
{
    ProgressOptions opt;
    opt.enabled = true;
    return opt;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(ProgressReporter, SnapshotTracksDoneAndRunning)
{
    ProgressReporter rep(10, 2, quietOptions());

    ProgressSnapshot s0 = rep.snapshot();
    EXPECT_EQ(s0.done, 0u);
    EXPECT_EQ(s0.total, 10u);
    EXPECT_EQ(s0.etaSeconds, -1.0); // unknown before any completion
    EXPECT_TRUE(s0.running.empty());

    rep.cellStarted("mcf/deuce");
    rep.cellStarted("lbm/encr");
    ProgressSnapshot s1 = rep.snapshot();
    ASSERT_EQ(s1.running.size(), 2u);
    EXPECT_EQ(s1.running[0], "mcf/deuce");

    rep.cellFinished("mcf/deuce", 2.0);
    ProgressSnapshot s2 = rep.snapshot();
    EXPECT_EQ(s2.done, 1u);
    ASSERT_EQ(s2.running.size(), 1u);
    EXPECT_EQ(s2.running[0], "lbm/encr");
}

TEST(ProgressReporter, EtaScalesWithMeanAndWorkers)
{
    ProgressReporter rep(10, 2, quietOptions());
    rep.cellFinished("a", 4.0);
    rep.cellFinished("b", 2.0);
    ProgressSnapshot s = rep.snapshot();
    EXPECT_DOUBLE_EQ(s.meanCellSeconds, 3.0);
    // 8 remaining cells at mean 3s across 2 workers.
    EXPECT_DOUBLE_EQ(s.etaSeconds, 3.0 * 8.0 / 2.0);
}

TEST(ProgressReporter, JsonlSummaryWrittenOnDestruction)
{
    // The reporter owns no thread: destroying the sampler that drives
    // it (stop()) writes the summary record.
    std::string path = ::testing::TempDir() + "progress_test.jsonl";
    std::remove(path.c_str());
    ProgressOptions opt = quietOptions();
    opt.jsonlPath = path;
    opt.label = "unit";
    ProgressReporter rep(2, 1, opt);
    {
        StatRegistry reg;
        TelemetrySampler sampler(reg, TelemetryConfig{});
        sampler.attachProgress(rep);
        sampler.start();
        rep.cellStarted("one");
        rep.cellFinished("one", 0.5);
    }
    std::string all = readAll(path);
    EXPECT_NE(all.find("\"type\":\"summary\""), std::string::npos);
    EXPECT_NE(all.find("\"label\":\"unit\""), std::string::npos);
    EXPECT_NE(all.find("\"done\":1"), std::string::npos);
    EXPECT_NE(all.find("\"total\":2"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ProgressReporter, SamplerThreadEmitsHeartbeats)
{
    std::string path = ::testing::TempDir() + "progress_beat.jsonl";
    std::remove(path.c_str());
    ProgressOptions opt = quietOptions();
    opt.jsonlPath = path;
    ProgressReporter rep(4, 2, opt);
    StatRegistry reg;
    TelemetrySampler sampler(reg, TelemetryConfig{});
    sampler.attachProgress(rep);
    sampler.start();

    // Workers record cells while the sampler thread reads the
    // reporter for its heartbeat.
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&rep, w] {
            std::string label = "cell" + std::to_string(w);
            rep.cellStarted(label);
            rep.cellFinished(label, 0.25);
        });
    }
    for (std::thread &t : workers) {
        t.join();
    }
    rep.cellStarted("slow");
    std::this_thread::sleep_for(ProgressReporter::kHeartbeatInterval +
                                std::chrono::milliseconds(300));
    sampler.stop();

    std::istringstream lines(readAll(path));
    std::string line, beat, summary;
    while (std::getline(lines, line)) {
        if (line.find("\"type\":\"progress\"") != std::string::npos) {
            beat = line;
        } else if (line.find("\"type\":\"summary\"") !=
                   std::string::npos) {
            summary = line;
        }
    }
    // The heartbeat record keeps its fields.
    ASSERT_FALSE(beat.empty()) << "no heartbeat after one interval";
    EXPECT_EQ(beat.rfind("{\"type\":\"progress\",\"label\":\"sweep\","
                         "\"done\":2,\"total\":4,\"elapsed_s\":",
                         0),
              0u)
        << beat;
    for (const char *field :
         {",\"eta_s\":", ",\"mean_cell_s\":0.25,",
          ",\"running\":[\"slow\"]}"}) {
        EXPECT_NE(beat.find(field), std::string::npos) << field;
    }
    EXPECT_FALSE(summary.empty());
    EXPECT_EQ(rep.started(), 3u);
    EXPECT_EQ(rep.done(), 2u);
    std::remove(path.c_str());
}

TEST(ProgressOptions, FromEnvParsing)
{
    ::unsetenv("DEUCE_PROGRESS");
    EXPECT_FALSE(progressOptionsFromEnv().has_value());

    ::setenv("DEUCE_PROGRESS", "", 1);
    EXPECT_FALSE(progressOptionsFromEnv().has_value());

    ::setenv("DEUCE_PROGRESS", "0", 1);
    EXPECT_FALSE(progressOptionsFromEnv().has_value());

    ::setenv("DEUCE_PROGRESS", "1", 1);
    auto stderr_only = progressOptionsFromEnv();
    ASSERT_TRUE(stderr_only.has_value());
    EXPECT_TRUE(stderr_only->enabled);
    EXPECT_TRUE(stderr_only->jsonlPath.empty());

    ::setenv("DEUCE_PROGRESS", "/tmp/hb.jsonl", 1);
    auto with_file = progressOptionsFromEnv();
    ASSERT_TRUE(with_file.has_value());
    EXPECT_TRUE(with_file->enabled);
    EXPECT_EQ(with_file->jsonlPath, "/tmp/hb.jsonl");

    ::unsetenv("DEUCE_PROGRESS");
}

} // namespace
} // namespace obs
} // namespace deuce
