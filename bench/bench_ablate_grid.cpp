/**
 * @file
 * Ablation: the full DEUCE (word size x epoch) grid, extending the
 * paper's one-dimensional sweeps of Figures 8 and 9.
 *
 * Micro section: AES pad-generation cost per line.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <sstream>

#include "bench_common.hh"
#include "crypto/otp_engine.hh"
#include "enc/deuce.hh"

namespace
{

using namespace deuce;

void
regenerate()
{
    printBanner(std::cout, "Ablation",
                "DEUCE average flips (%) over word-size x epoch grid");
    SweepSpec spec = benchutil::standardSpec();

    const unsigned word_sizes[4] = {1, 2, 4, 8};
    const unsigned epochs[4] = {8, 16, 32, 64};

    // All 16 grid points as custom columns of one sweep: the full
    // 16 x 12 cell grid load-balances across the worker pool.
    for (unsigned w : word_sizes) {
        for (unsigned e : epochs) {
            std::ostringstream key;
            key << w << "b-e" << e;
            spec.schemes.push_back(SchemeSpec::custom(
                key.str(), [w, e](const OtpEngine &otp) {
                    return std::make_unique<Deuce>(
                        otp, DeuceConfig{w, e, false, 16});
                }));
        }
    }
    SweepResult all = runSweep(spec);

    Table t({"word \\ epoch", "e8", "e16", "e32", "e64"});
    for (unsigned w : word_sizes) {
        std::vector<std::string> row;
        {
            std::ostringstream os;
            os << w << "B (" << (512 / (w * 8)) << " bits/line)";
            row.push_back(os.str());
        }
        for (unsigned e : epochs) {
            std::ostringstream key;
            key << w << "b-e" << e;
            row.push_back(fmt(
                averageOf(all[key.str()], &ExperimentRow::flipPct),
                1));
        }
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "  paper diagonal anchors: 2B/e32 = 23.7, "
                 "1B/e32 = 21.4, 8B/e32 = 32.2, 2B/e8 = 24.8\n";
}

void
BM_PadGeneration(benchmark::State &state)
{
    auto otp = makeAesOtpEngine(1);
    uint64_t ctr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(otp->padForLine(42, ++ctr));
    }
}
BENCHMARK(BM_PadGeneration);

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
