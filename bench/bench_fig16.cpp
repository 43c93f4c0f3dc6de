/**
 * @file
 * Figure 16: system speedup relative to the encrypted-memory
 * baseline, from the bank-contention timing model.
 *
 * Paper anchors: Encr+FNW ~1.0 (slot fragmentation eats the flip
 * savings), DEUCE 1.27, NoEncr+FNW 1.40 — DEUCE bridges two-thirds
 * of the performance gap between encrypted and unencrypted memory.
 *
 * Micro section: timing-simulator event throughput.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/timing.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace deuce;

void
regenerate()
{
    printBanner(std::cout, "Figure 16",
                "speedup vs encrypted memory (timing model)");
    SweepSpec spec = benchutil::standardSpec();
    spec.options.timing = true;
    spec.add("encr", "Encr")
        .add("encr-fnw", "Encr+FNW")
        .add("deuce", "DEUCE")
        .add("nofnw", "NoEncr+FNW");
    SweepResult all = runSweep(spec);

    Table t({"bench", "Encr+FNW", "DEUCE", "NoEncr+FNW"});
    const auto &profiles = all.benchmarks();
    for (size_t b = 0; b < profiles.size(); ++b) {
        double base = all["encr"][b].executionNs;
        t.addRow({profiles[b].name,
                  fmt(base / all["encr-fnw"][b].executionNs, 2),
                  fmt(base / all["deuce"][b].executionNs, 2),
                  fmt(base / all["nofnw"][b].executionNs, 2)});
    }
    t.addRule();
    double gm_fnw = geomeanSpeedup(all["encr"], all["encr-fnw"],
                                   &ExperimentRow::executionNs);
    double gm_deuce = geomeanSpeedup(all["encr"], all["deuce"],
                                     &ExperimentRow::executionNs);
    double gm_noencr = geomeanSpeedup(all["encr"], all["nofnw"],
                                      &ExperimentRow::executionNs);
    t.addRow({"Gmean", fmt(gm_fnw, 2), fmt(gm_deuce, 2),
              fmt(gm_noencr, 2)});
    t.print(std::cout);

    std::cout << '\n';
    printPaperVsMeasured(std::cout, "Encr+FNW speedup", 1.0, gm_fnw,
                         2);
    printPaperVsMeasured(std::cout, "DEUCE speedup", 1.27, gm_deuce,
                         2);
    printPaperVsMeasured(std::cout, "NoEncr+FNW speedup", 1.40,
                         gm_noencr, 2);
}

void
BM_TimingSimulator(benchmark::State &state)
{
    BenchmarkProfile p = profileByName("mcf");
    auto otp = makeAesOtpEngine(1);
    auto scheme = makeScheme("deuce", *otp);
    for (auto _ : state) {
        state.PauseTiming();
        SyntheticWorkload workload(p, 20000);
        WearLevelingConfig wl;
        wl.verticalEnabled = false;
        MemorySystem memory(*scheme, wl, PcmConfig{},
                            [&](uint64_t addr) {
                                return workload.initialContents(addr);
                            });
        TimingSimulator sim(TimingConfig{}, PcmConfig{});
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim.run(workload, memory));
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TimingSimulator)->Unit(benchmark::kMillisecond);

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
