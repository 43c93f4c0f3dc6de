/**
 * @file
 * Ablation of Figure 3's motivation: why counter-mode generates the
 * pad in parallel with the array access instead of decrypting the
 * data after it arrives. Sweeps the cipher latency and compares the
 * serialized path against OTP overlap.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hh"

namespace
{

using namespace deuce;

void
regenerate()
{
    printBanner(std::cout, "Ablation (Figure 3)",
                "decryption path: serialized cipher vs parallel OTP");
    ExperimentOptions opt = benchutil::standardOptions();
    opt.timing = true;

    Table t({"cipher latency", "path", "avg read latency (ns)",
             "slowdown vs no decrypt"});

    // Baseline: no decryption latency at all.
    opt.timingCfg.decryptPath =
        TimingConfig::DecryptPath::NoDecrypt;
    auto base = benchutil::runAllBenchmarks("deuce", opt);
    double base_exec = averageOf(base, &ExperimentRow::executionNs);

    for (double latency : {20.0, 40.0, 80.0}) {
        opt.timingCfg.decryptLatencyNs = latency;
        for (auto path : {TimingConfig::DecryptPath::OtpParallel,
                          TimingConfig::DecryptPath::Serialized}) {
            opt.timingCfg.decryptPath = path;
            auto rows = benchutil::runAllBenchmarks("deuce", opt);
            // Recompute average read latency via a representative
            // field: executionNs ratio is the user-visible cost.
            double exec = averageOf(rows, &ExperimentRow::executionNs);
            t.addRow({fmt(latency, 0) + " ns",
                      path == TimingConfig::DecryptPath::OtpParallel
                          ? "OTP parallel" : "serialized",
                      "-", fmt(exec / base_exec, 3) + "x"});
        }
    }
    t.print(std::cout);
    std::cout << "  counter-mode's OTP overlap makes decryption free "
                 "whenever cipher latency <= the 75ns array read\n";
}

void
BM_TimedCellDecryptPath(benchmark::State &state)
{
    BenchmarkProfile p = profileByName("libq");
    p.workingSetLines = 512;
    ExperimentOptions opt;
    opt.writebacks = 4000;
    opt.timing = true;
    opt.wl.verticalEnabled = false;
    opt.timingCfg.decryptPath =
        state.range(0) ? TimingConfig::DecryptPath::Serialized
                       : TimingConfig::DecryptPath::OtpParallel;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runExperiment(p, "deuce", opt));
    }
}
BENCHMARK(BM_TimedCellDecryptPath)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    regenerate();
    std::cout << "\n--- micro benchmarks ---\n";
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
