/**
 * @file
 * Ablation: memory-controller scheduling and the counter cache.
 *
 * The paper's performance model services reads FCFS behind writes;
 * real controllers deploy write pausing (reads preempt queued writes)
 * and keep counters in a small on-chip cache. This bench shows how
 * both choices move the DEUCE-vs-encrypted speedup.
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
    printBanner(std::cout, "Ablation",
                "scheduler policy and counter cache vs speedup");
    ExperimentOptions opt = benchutil::standardOptions();
    opt.timing = true;

    struct Config
    {
        const char *label;
        TimingConfig::Scheduler scheduler;
        uint64_t counterCacheBytes;
    };
    Table t({"controller", "Encr slots", "DEUCE speedup",
             "NoEncr+FNW speedup", "ctr miss %"});
    for (const Config &c :
         {Config{"FCFS, on-chip ctrs (paper)",
                 TimingConfig::Scheduler::Fcfs, 0},
          Config{"read-priority, on-chip ctrs",
                 TimingConfig::Scheduler::ReadPriority, 0},
          Config{"FCFS, 256KB counter cache",
                 TimingConfig::Scheduler::Fcfs, 256 * 1024},
          Config{"FCFS, 32KB counter cache",
                 TimingConfig::Scheduler::Fcfs, 32 * 1024}}) {
        opt.timingCfg.scheduler = c.scheduler;
        opt.timingCfg.counterCacheBytes = c.counterCacheBytes;

        SweepSpec spec;
        spec.options = opt;
        spec.add("encr").add("deuce").add("nofnw");
        SweepResult all = runSweep(spec);
        double deuce_speedup = geomeanSpeedup(
            all["encr"], all["deuce"], &ExperimentRow::executionNs);
        double noencr_speedup = geomeanSpeedup(
            all["encr"], all["nofnw"], &ExperimentRow::executionNs);
        t.addRow({c.label,
                  fmt(averageOf(all["encr"], &ExperimentRow::avgSlots),
                      2),
                  fmt(deuce_speedup, 2), fmt(noencr_speedup, 2),
                  fmt(averageOf(all["encr"],
                                &ExperimentRow::counterCacheMissRate) *
                          100.0,
                      1)});
    }
    t.print(std::cout);
    std::cout << "  paper operating point (row 1): DEUCE 1.27, "
                 "NoEncr+FNW 1.40\n";
}

void
BM_TimedCellReadPriority(benchmark::State &state)
{
    BenchmarkProfile p = profileByName("libq");
    p.workingSetLines = 512;
    ExperimentOptions opt;
    opt.writebacks = 4000;
    opt.timing = true;
    opt.wl.verticalEnabled = false;
    opt.timingCfg.scheduler =
        state.range(0) ? TimingConfig::Scheduler::ReadPriority
                       : TimingConfig::Scheduler::Fcfs;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runExperiment(p, "deuce", opt));
    }
}
BENCHMARK(BM_TimedCellReadPriority)
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
