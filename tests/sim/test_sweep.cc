/**
 * @file
 * Tests for the sweep engine: declarative grids, deterministic
 * parallel execution, lookup, the JSON emission path, and the
 * progress and telemetry records of a run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "enc/counter_mode.hh"
#include "enc/scheme_factory.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace deuce
{
namespace
{

SweepSpec
quickSpec()
{
    SweepSpec spec;
    for (const char *name : {"libq", "mcf", "Gems"}) {
        BenchmarkProfile p = profileByName(name);
        p.workingSetLines = 256;
        spec.benchmarks.push_back(p);
    }
    spec.options.writebacks = 2000;
    spec.options.otpEngine = makeFastOtpEngine;
    spec.options.wl.verticalEnabled = false;
    spec.add("encr", "Encr").add("deuce", "DEUCE");
    return spec;
}

void
expectIdenticalRows(const ExperimentRow &a, const ExperimentRow &b)
{
    EXPECT_EQ(a.bench, b.bench);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_DOUBLE_EQ(a.flipPct, b.flipPct);
    EXPECT_DOUBLE_EQ(a.avgSlots, b.avgSlots);
    EXPECT_DOUBLE_EQ(a.executionNs, b.executionNs);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    EXPECT_DOUBLE_EQ(a.powerMw, b.powerMw);
    EXPECT_DOUBLE_EQ(a.edp, b.edp);
    EXPECT_DOUBLE_EQ(a.maxFlipRate, b.maxFlipRate);
    EXPECT_DOUBLE_EQ(a.wearNonUniformity, b.wearNonUniformity);
    EXPECT_DOUBLE_EQ(a.counterCacheMissRate, b.counterCacheMissRate);
    EXPECT_EQ(a.trackingBits, b.trackingBits);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.reads, b.reads);
}

TEST(Sweep, GridShapeAndLookup)
{
    SweepSpec spec = quickSpec();
    SweepResult result = runSweep(spec);
    EXPECT_EQ(result.schemeCount(), 2u);
    EXPECT_EQ(result.benchCount(), 3u);
    // Lookup by display label and by factory id both resolve.
    EXPECT_EQ(&result["Encr"], &result["encr"]);
    EXPECT_EQ(result["deuce"].size(), 3u);
    EXPECT_EQ(result["deuce"][0].bench, "libq");
    EXPECT_EQ(result["deuce"][2].bench, "Gems");
    EXPECT_THROW(result["nope"], FatalError);
    // flatRows is scheme-major.
    auto flat = result.flatRows();
    ASSERT_EQ(flat.size(), 6u);
    EXPECT_EQ(flat[0].scheme, result.cell(0, 0).scheme);
    EXPECT_EQ(flat[5].bench, "Gems");
}

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    SweepSpec serial = quickSpec();
    serial.options.timing = true; // populate every row field
    serial.threads = 1;
    SweepResult a = runSweep(serial);

    for (unsigned threads : {4u, 8u}) {
        SweepSpec par = quickSpec();
        par.options.timing = true;
        par.threads = threads;
        SweepResult b = runSweep(par);
        ASSERT_EQ(a.schemeCount(), b.schemeCount());
        ASSERT_EQ(a.benchCount(), b.benchCount());
        for (size_t s = 0; s < a.schemeCount(); ++s) {
            for (size_t bench = 0; bench < a.benchCount(); ++bench) {
                expectIdenticalRows(a.cell(s, bench),
                                    b.cell(s, bench));
            }
        }
    }
}

TEST(Sweep, DerivedSeedsAreStableAndDistinct)
{
    // Stable: same coordinates, same seed.
    EXPECT_EQ(deriveCellSeed(1, "mcf", "deuce"),
              deriveCellSeed(1, "mcf", "deuce"));
    // Distinct along every axis.
    EXPECT_NE(deriveCellSeed(1, "mcf", "deuce"),
              deriveCellSeed(2, "mcf", "deuce"));
    EXPECT_NE(deriveCellSeed(1, "mcf", "deuce"),
              deriveCellSeed(1, "libq", "deuce"));
    EXPECT_NE(deriveCellSeed(1, "mcf", "deuce"),
              deriveCellSeed(1, "mcf", "encr"));
    // Never zero (some pad engines treat 0 as degenerate).
    EXPECT_NE(deriveCellSeed(0, "", ""), 0u);
}

TEST(Sweep, DisabledSeedDerivationReproducesSingleRuns)
{
    SweepSpec spec = quickSpec();
    spec.deriveCellSeeds = false;
    SweepResult result = runSweep(spec);
    ExperimentRow solo = runExperiment(spec.benchmarks[1], "deuce",
                                       spec.options);
    expectIdenticalRows(result["deuce"][1], solo);
}

TEST(Sweep, CustomFactoryColumn)
{
    SweepSpec spec = quickSpec();
    spec.schemes.clear();
    spec.schemes.push_back(SchemeSpec::custom(
        "fnw8", [](const OtpEngine &otp) {
            return std::make_unique<CounterModeEncryption>(otp, true,
                                                           8);
        }));
    SweepResult result = runSweep(spec);
    EXPECT_EQ(result["fnw8"].size(), 3u);
    EXPECT_GT(result["fnw8"][0].flipPct, 0.0);
}

TEST(Sweep, UnknownSchemeIdFailsBeforeExecution)
{
    SweepSpec spec = quickSpec();
    spec.add("no-such-scheme");
    EXPECT_THROW(runSweep(spec), FatalError);
}

TEST(Sweep, PrintSweepTableShowsBenchesSchemesAndAvg)
{
    SweepSpec spec = quickSpec();
    SweepResult result = runSweep(spec);
    std::ostringstream os;
    printSweepTable(os, result, &ExperimentRow::flipPct);
    std::string text = os.str();
    EXPECT_NE(text.find("libq"), std::string::npos);
    EXPECT_NE(text.find("mcf"), std::string::npos);
    EXPECT_NE(text.find("Encr"), std::string::npos);
    EXPECT_NE(text.find("DEUCE"), std::string::npos);
    EXPECT_NE(text.find("Avg"), std::string::npos);
}

TEST(Sweep, JsonRowRoundTripsFields)
{
    ExperimentRow row;
    row.bench = "libq";
    row.scheme = "DEUCE \"2B\"";
    row.flipPct = 23.5;
    row.trackingBits = 32;
    row.writebacks = 1000;
    std::string json = experimentRowJson(row);
    EXPECT_NE(json.find("\"bench\":\"libq\""), std::string::npos);
    // Quotes inside values must be escaped.
    EXPECT_NE(json.find("DEUCE \\\"2B\\\""), std::string::npos);
    EXPECT_NE(json.find("\"flip_pct\":23.5"), std::string::npos);
    EXPECT_NE(json.find("\"tracking_bits\":32"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(Sweep, JsonEnvKnobAppendsEveryCell)
{
    std::string path = ::testing::TempDir() + "sweep_rows.jsonl";
    std::remove(path.c_str());
    ::setenv("DEUCE_BENCH_JSON", path.c_str(), 1);
    SweepSpec spec = quickSpec();
    runSweep(spec);
    runSweep(spec); // append, not truncate
    ::unsetenv("DEUCE_BENCH_JSON");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) {
            EXPECT_EQ(line.front(), '{');
            EXPECT_EQ(line.back(), '}');
            ++lines;
        }
    }
    EXPECT_EQ(lines, 12u); // 2 runs x 2 schemes x 3 benchmarks
    std::remove(path.c_str());
}

/** The lines of @p path. */
std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    return lines;
}

/** The integer after @p key in @p text (-1 when absent). */
long long
intAfter(const std::string &text, const std::string &key)
{
    size_t at = text.find(key);
    return at == std::string::npos
               ? -1
               : std::stoll(text.substr(at + key.size()));
}

TEST(Sweep, ProgressAndTelemetryRecordEachCellOnce)
{
    std::string progressPath =
        ::testing::TempDir() + "sweep_progress.jsonl";
    std::string telemetryPath =
        ::testing::TempDir() + "sweep_telemetry.jsonl";
    std::remove(progressPath.c_str());
    std::remove(telemetryPath.c_str());

    SweepSpec spec = quickSpec();
    spec.threads = 2;
    spec.progress.enabled = true;
    spec.progress.jsonlPath = progressPath;
    spec.telemetry.jsonlPath = telemetryPath;
    spec.telemetry.periodMs = 5;
    ::testing::internal::CaptureStderr();
    runSweep(spec);
    std::string err = ::testing::internal::GetCapturedStderr();

    // The progress summary and the final telemetry tick read the
    // same record of the six cells.
    std::vector<std::string> progress = readLines(progressPath);
    ASSERT_FALSE(progress.empty());
    const std::string &summary = progress.back();
    EXPECT_EQ(summary.rfind("{\"type\":\"summary\",\"label\":\"sweep\","
                            "\"done\":6,\"total\":6,\"elapsed_s\":",
                            0),
              0u)
        << summary;
    EXPECT_NE(summary.find(",\"eta_s\":0,\"mean_cell_s\":"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find(",\"running\":[]}"), std::string::npos)
        << summary;

    std::vector<std::string> ticks = readLines(telemetryPath);
    ASSERT_FALSE(ticks.empty());
    const std::string &last = ticks.back();
    EXPECT_EQ(intAfter(last, "\"sweep.cells_finished\":{\"v\":"),
              intAfter(summary, "\"done\":"));
    EXPECT_EQ(intAfter(last, "\"sweep.cells_started\":{\"v\":"), 6);
    EXPECT_EQ(intAfter(last, "\"sweep.cell\":{\"count\":"), 6);

    // The stderr line keeps its format.
    ASSERT_NE(err.rfind("[sweep] "), std::string::npos) << err;
    std::string line = err.substr(err.rfind("[sweep] "));
    EXPECT_EQ(line.rfind("[sweep] 6/6 cells (100.0%) elapsed ", 0), 0u)
        << line;
    EXPECT_NE(line.find("s eta 0.0s\n"), std::string::npos) << line;

    std::remove(progressPath.c_str());
    std::remove(telemetryPath.c_str());
}

} // namespace
} // namespace deuce
