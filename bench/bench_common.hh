/**
 * @file
 * Shared harness for the figure/table regeneration benches.
 *
 * Every bench binary regenerates one table or figure of the paper
 * (printed before the google-benchmark micro section runs). The
 * figure runs use the real AES engine and execute their experiment
 * grids through the sweep engine (sim/sweep.hh), so cells run in
 * parallel across DEUCE_BENCH_THREADS workers. DEUCE_BENCH_WB
 * changes the per-cell writeback budget (default 60000);
 * DEUCE_BENCH_JSON appends every cell to a JSON Lines file;
 * DEUCE_TRACE=<path> writes a Chrome trace of the figure runs and
 * DEUCE_PROGRESS=1 enables stderr heartbeat lines (obs/).
 */

#ifndef DEUCE_BENCH_BENCH_COMMON_HH
#define DEUCE_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "trace/profile.hh"

namespace deuce
{
namespace benchutil
{

/**
 * The DEUCE_BENCH_WB writeback budget, or @p fallback when it is
 * unset. A malformed value (see parseUnsigned()) prints a usage line
 * and exits 2.
 */
uint64_t writebacksFromEnv(uint64_t fallback);

/** Standard options for figure regeneration (real AES). */
ExperimentOptions standardOptions();

/** A sweep spec pre-loaded with standardOptions(); add schemes. */
SweepSpec standardSpec();

/** One row per benchmark for a given scheme id (a 1-column sweep). */
std::vector<ExperimentRow> runAllBenchmarks(
    const std::string &scheme_id, const ExperimentOptions &options);

/**
 * Run several scheme columns over all benchmarks as one parallel
 * sweep and print the per-benchmark flip table with an Avg row.
 */
SweepResult runAndPrintFlipTable(
    const std::vector<std::pair<std::string, std::string>>
        &schemes, // (id, column label)
    const ExperimentOptions &options);

} // namespace benchutil
} // namespace deuce

#endif // DEUCE_BENCH_BENCH_COMMON_HH
