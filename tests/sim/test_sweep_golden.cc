/**
 * @file
 * Golden sweep regression: a small pinned sweep whose JSON rows must
 * be byte-identical across every (thread count x line-kernel backend)
 * combination. The only field allowed to differ is "line_backend"
 * itself (it names the selection), so rows are compared after
 * stripping it. This is the end-to-end guarantee behind the
 * registry's "all backends bit-identical" contract: not just equal
 * popcounts, but equal formatted output from the full simulator.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/line_kernels.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace deuce
{
namespace
{

SweepSpec
goldenSpec()
{
    SweepSpec spec;
    for (const char *name : {"libq", "mcf"}) {
        BenchmarkProfile p = profileByName(name);
        p.workingSetLines = 192;
        spec.benchmarks.push_back(p);
    }
    spec.options.writebacks = 1500;
    spec.options.otpEngine = makeFastOtpEngine;
    spec.options.timing = true; // populate every row field
    spec.add("encr", "Encr")
        .add("deuce", "DEUCE")
        .add("deuce-fnw", "DEUCE+FNW")
        .add("ble-deuce", "BLE+DEUCE");
    return spec;
}

/** JSON rows of one sweep run, with the line_backend field removed. */
void
strippedRowsFor(const SweepSpec &base, unsigned threads,
                std::vector<std::string> &rows)
{
    SweepSpec spec = base;
    spec.threads = threads;
    SweepResult result = runSweep(spec);
    rows.clear();
    for (const ExperimentRow &row : result.flatRows()) {
        std::string json = experimentRowJson(row);
        std::string::size_type at = json.find(",\"line_backend\":\"");
        if (at != std::string::npos) {
            std::string::size_type end =
                json.find('"', at + 18); // closing quote of the value
            ASSERT_NE(end, std::string::npos) << json;
            json.erase(at, end + 1 - at);
        }
        rows.push_back(json);
    }
}

void
strippedRows(unsigned threads, std::vector<std::string> &rows)
{
    strippedRowsFor(goldenSpec(), threads, rows);
}

TEST(SweepGolden, RowsIdenticalAcrossThreadsAndLineBackends)
{
    setLineBackend(LineBackendKind::Scalar);
    std::vector<std::string> golden;
    strippedRows(1, golden);
    ASSERT_EQ(golden.size(), 8u); // 4 schemes x 2 benchmarks
    for (const std::string &row : golden) {
        // The stripped rows must not leak the selection anywhere.
        EXPECT_EQ(row.find("line_backend"), std::string::npos);
    }

    for (LineBackendKind backend : availableLineBackends()) {
        setLineBackend(backend);
        for (unsigned threads : {1u, 3u}) {
            std::vector<std::string> rows;
            strippedRows(threads, rows);
            ASSERT_EQ(rows.size(), golden.size());
            for (size_t i = 0; i < golden.size(); ++i) {
                EXPECT_EQ(rows[i], golden[i])
                    << "backend=" << lineBackendName(backend)
                    << " threads=" << threads << " row=" << i;
            }
        }
    }
    setLineBackend(LineBackendKind::Auto);
}

/**
 * The same contract across the cell-technology grid: one SLC and one
 * MLC2 sweep over the coset-coding schemes, each pinned against its
 * own scalar/1-thread rows. MLC2 rows must carry the gated MLC fields
 * and SLC rows must not (the historical format stays frozen), and both
 * must be byte-identical across every backend and thread count —
 * the transition histograms, stretched latencies, and coset selection
 * all reduce to the same integers no matter how the work is carved up.
 */
TEST(SweepGolden, VccMlcRowsIdenticalAcrossThreadsAndLineBackends)
{
    SweepSpec slc = goldenSpec();
    slc.schemes.clear();
    slc.add("encr", "Encr")
        .add("deuce", "DEUCE")
        .add("vcc", "VCC")
        .add("vcc-mlc", "VCC-MLC");
    SweepSpec mlc = slc;
    mlc.options.pcm.cellTech = CellTech::MLC2;

    struct TechCase
    {
        const SweepSpec *spec;
        bool wantMlcFields;
    };
    for (const TechCase &tc :
         {TechCase{&slc, false}, TechCase{&mlc, true}}) {
        setLineBackend(LineBackendKind::Scalar);
        std::vector<std::string> golden;
        strippedRowsFor(*tc.spec, 1, golden);
        ASSERT_EQ(golden.size(), 8u); // 4 schemes x 2 benchmarks
        for (const std::string &row : golden) {
            EXPECT_EQ(row.find("\"cell_tech\"") != std::string::npos,
                      tc.wantMlcFields)
                << row;
            EXPECT_EQ(row.find("\"mlc_transition_energy_pj\"") !=
                          std::string::npos,
                      tc.wantMlcFields)
                << row;
        }

        for (LineBackendKind backend : availableLineBackends()) {
            setLineBackend(backend);
            for (unsigned threads : {1u, 3u}) {
                std::vector<std::string> rows;
                strippedRowsFor(*tc.spec, threads, rows);
                ASSERT_EQ(rows.size(), golden.size());
                for (size_t i = 0; i < golden.size(); ++i) {
                    EXPECT_EQ(rows[i], golden[i])
                        << "backend=" << lineBackendName(backend)
                        << " threads=" << threads << " row=" << i
                        << (tc.wantMlcFields ? " (mlc2)" : " (slc)");
                }
            }
        }
    }
    setLineBackend(LineBackendKind::Auto);
}

TEST(SweepGolden, RowRecordsActiveLineBackend)
{
    setLineBackend(LineBackendKind::Scalar);
    SweepSpec spec = goldenSpec();
    spec.benchmarks.resize(1);
    spec.schemes.resize(1);
    spec.options.writebacks = 200;
    SweepResult result = runSweep(spec);
    const ExperimentRow &row = result.cell(0, 0);
    EXPECT_EQ(row.lineBackend, "scalar");
    EXPECT_NE(experimentRowJson(row).find(
                  "\"line_backend\":\"scalar\""),
              std::string::npos);
    setLineBackend(LineBackendKind::Auto);
}

} // namespace
} // namespace deuce
