/**
 * @file
 * Shared bench harness implementation.
 */

#include "bench_common.hh"

#include <cstdlib>
#include <iostream>
#include <optional>

#include "common/cli_parse.hh"
#include "obs/trace.hh"

namespace deuce
{
namespace benchutil
{

uint64_t
writebacksFromEnv(uint64_t fallback)
{
    const char *env = std::getenv("DEUCE_BENCH_WB");
    if (env == nullptr) {
        return fallback;
    }
    std::optional<uint64_t> wb = parseUnsigned(env);
    if (!wb) {
        std::cerr << "usage: DEUCE_BENCH_WB=<writebacks> (a base-10 "
                     "count, got \"" << env << "\")\n";
        std::exit(2);
    }
    return *wb;
}

ExperimentOptions
standardOptions()
{
    // Every bench binary funnels through here, so the DEUCE_TRACE
    // env knob covers all of them (the sweep engine itself honours
    // DEUCE_PROGRESS). Re-invocation just re-applies the same path.
    obs::traceConfigureFromEnv();

    ExperimentOptions opt;
    opt.writebacks = writebacksFromEnv(60000);
    opt.wl.verticalEnabled = false;
    return opt;
}

SweepSpec
standardSpec()
{
    SweepSpec spec;
    spec.options = standardOptions();
    return spec;
}

std::vector<ExperimentRow>
runAllBenchmarks(const std::string &scheme_id,
                 const ExperimentOptions &options)
{
    SweepSpec spec;
    spec.options = options;
    spec.add(scheme_id);
    return runSweep(spec).rows(scheme_id);
}

SweepResult
runAndPrintFlipTable(
    const std::vector<std::pair<std::string, std::string>> &schemes,
    const ExperimentOptions &options)
{
    SweepSpec spec;
    spec.options = options;
    for (const auto &[id, label] : schemes) {
        spec.add(id, label);
    }
    SweepResult result = runSweep(spec);
    printSweepTable(std::cout, result, &ExperimentRow::flipPct);
    return result;
}

} // namespace benchutil
} // namespace deuce
