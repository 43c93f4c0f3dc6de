/**
 * @file
 * Tests for the experiment runner and its aggregation helpers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "crypto/aes_backend.hh"
#include "enc/scheme_factory.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace deuce
{
namespace
{

BenchmarkProfile
quickProfile()
{
    BenchmarkProfile p = profileByName("libq");
    p.workingSetLines = 256;
    return p;
}

ExperimentOptions
quickOptions()
{
    ExperimentOptions opt;
    opt.writebacks = 3000;
    opt.otpEngine = makeFastOtpEngine;
    opt.wl.verticalEnabled = false;
    return opt;
}

TEST(Experiment, ProducesPopulatedRow)
{
    ExperimentRow row =
        runExperiment(quickProfile(), "deuce", quickOptions());
    EXPECT_EQ(row.bench, "libq");
    EXPECT_EQ(row.scheme, "DEUCE-2B-e32");
    EXPECT_GT(row.flipPct, 0.0);
    EXPECT_LT(row.flipPct, 100.0);
    EXPECT_GE(row.avgSlots, 1.0);
    EXPECT_LE(row.avgSlots, 4.5);
    // The event mix is stochastic; the writeback budget is
    // approximate.
    EXPECT_NEAR(static_cast<double>(row.writebacks), 3000.0, 200.0);
    EXPECT_EQ(row.trackingBits, 32u);
    EXPECT_GT(row.maxFlipRate, 0.0);
}

TEST(Experiment, DeterministicAcrossRuns)
{
    ExperimentRow a =
        runExperiment(quickProfile(), "deuce", quickOptions());
    ExperimentRow b =
        runExperiment(quickProfile(), "deuce", quickOptions());
    EXPECT_DOUBLE_EQ(a.flipPct, b.flipPct);
    EXPECT_DOUBLE_EQ(a.avgSlots, b.avgSlots);
}

TEST(Experiment, EncryptionCostsFiftyPercent)
{
    ExperimentRow row =
        runExperiment(quickProfile(), "encr", quickOptions());
    EXPECT_NEAR(row.flipPct, 50.0, 1.5);
}

TEST(Experiment, TimingRunFillsPerformanceFields)
{
    ExperimentOptions opt = quickOptions();
    opt.timing = true;
    ExperimentRow row = runExperiment(quickProfile(), "deuce", opt);
    EXPECT_GT(row.executionNs, 0.0);
    EXPECT_GT(row.energyPj, 0.0);
    EXPECT_GT(row.powerMw, 0.0);
    EXPECT_GT(row.edp, 0.0);
    EXPECT_GT(row.reads, 0u);
    EXPECT_NEAR(row.edp, row.energyPj * row.executionNs,
                row.edp * 1e-9);
}

TEST(Experiment, ProcessReadsCountsReads)
{
    ExperimentOptions opt = quickOptions();
    opt.processReads = true;
    ExperimentRow row = runExperiment(quickProfile(), "deuce", opt);
    EXPECT_GT(row.reads, 0u);
    // Reads/writebacks ratio should follow mpki/wbpki (22.9 / 9.78).
    double ratio = static_cast<double>(row.reads) / row.writebacks;
    EXPECT_NEAR(ratio, 22.9 / 9.78, 0.35);
}

TEST(Experiment, ExternalSchemeOverload)
{
    auto otp = makeAesOtpEngine(7);
    auto scheme = makeScheme("dyndeuce", *otp);
    ExperimentRow row =
        runExperiment(quickProfile(), *scheme, quickOptions());
    EXPECT_EQ(row.scheme, scheme->name());
    EXPECT_EQ(row.trackingBits, 33u);
}

TEST(Experiment, SchemeFactoryOverloadMatchesStringId)
{
    ExperimentRow by_id =
        runExperiment(quickProfile(), "deuce", quickOptions());
    ExperimentRow by_factory = runExperiment(
        quickProfile(), schemeFactoryFor("deuce"), quickOptions());
    EXPECT_EQ(by_factory.scheme, by_id.scheme);
    EXPECT_DOUBLE_EQ(by_factory.flipPct, by_id.flipPct);
    EXPECT_DOUBLE_EQ(by_factory.avgSlots, by_id.avgSlots);
}

TEST(Experiment, DefaultOptionsRunOnAesPads)
{
    // Only a test opts into the hash reference pads: a default
    // ExperimentOptions cell runs on an AES backend, alone or swept.
    ExperimentOptions opt;
    opt.writebacks = 500;
    auto isAes = [](const std::string &name) {
        std::optional<AesBackendKind> kind = parseAesBackendName(name);
        return kind && *kind != AesBackendKind::Auto;
    };
    ExperimentRow row = runExperiment(quickProfile(), "deuce", opt);
    EXPECT_TRUE(isAes(row.aesBackend)) << row.aesBackend;

    SweepSpec spec;
    spec.benchmarks = {quickProfile()};
    spec.options = opt;
    spec.threads = 1;
    spec.add("deuce");
    const std::string swept = runSweep(spec)["deuce"].at(0).aesBackend;
    EXPECT_TRUE(isAes(swept)) << swept;
}

TEST(Experiment, SchemeFactoryRejectsUnknownIdEagerly)
{
    EXPECT_THROW(schemeFactoryFor("no-such-scheme"), FatalError);
}

TEST(Experiment, AverageOf)
{
    std::vector<ExperimentRow> rows(3);
    rows[0].flipPct = 10.0;
    rows[1].flipPct = 20.0;
    rows[2].flipPct = 60.0;
    EXPECT_DOUBLE_EQ(averageOf(rows, &ExperimentRow::flipPct), 30.0);
}

TEST(Experiment, AverageOfEmptySetThrows)
{
    std::vector<ExperimentRow> rows;
    EXPECT_THROW(averageOf(rows, &ExperimentRow::flipPct), PanicError);
}

TEST(Experiment, GeomeanSpeedup)
{
    std::vector<ExperimentRow> base(2), fast(2);
    base[0].executionNs = 100.0;
    base[1].executionNs = 400.0;
    fast[0].executionNs = 50.0;  // 2.0x
    fast[1].executionNs = 200.0; // 2.0x
    EXPECT_NEAR(geomeanSpeedup(base, fast,
                               &ExperimentRow::executionNs),
                2.0, 1e-9);
}

TEST(Experiment, GeomeanRequiresMatchedRows)
{
    std::vector<ExperimentRow> base(2), fast(1);
    base[0].executionNs = base[1].executionNs = 1.0;
    fast[0].executionNs = 1.0;
    EXPECT_THROW(
        geomeanSpeedup(base, fast, &ExperimentRow::executionNs),
        PanicError);
}

TEST(Experiment, GeomeanEmptySetsThrow)
{
    std::vector<ExperimentRow> base, fast;
    EXPECT_THROW(
        geomeanSpeedup(base, fast, &ExperimentRow::executionNs),
        PanicError);
}

TEST(Experiment, GeomeanZeroBaselineThrows)
{
    std::vector<ExperimentRow> base(1), fast(1);
    base[0].executionNs = 0.0;
    fast[0].executionNs = 1.0;
    EXPECT_THROW(
        geomeanSpeedup(base, fast, &ExperimentRow::executionNs),
        PanicError);
}

TEST(Experiment, GeomeanZeroSchemeValueThrows)
{
    std::vector<ExperimentRow> base(1), fast(1);
    base[0].executionNs = 1.0;
    fast[0].executionNs = 0.0;
    EXPECT_THROW(
        geomeanSpeedup(base, fast, &ExperimentRow::executionNs),
        PanicError);
}

} // namespace
} // namespace deuce
