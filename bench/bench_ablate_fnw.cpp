/**
 * @file
 * Ablation: Flip-N-Write region granularity. The paper fixes FNW at
 * two-byte regions (32 flip bits per line); this sweep shows the
 * storage/effectiveness trade-off for 8/16/32/64-bit regions, both
 * on encrypted traffic (where FNW's bound matters most) and on
 * unencrypted traffic.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/counter_mode.hh"
#include "pcm/fnw.hh"
#include "enc/no_encryption.hh"

namespace
{

using namespace deuce;

void
regenerate()
{
    printBanner(std::cout, "Ablation",
                "FNW granularity: average flips (%) and overhead");
    SweepSpec spec = benchutil::standardSpec();
    // Two scheme columns per region size, all 8 built through
    // factories so every cell owns its scheme instance.
    for (unsigned bits : {8u, 16u, 32u, 64u}) {
        spec.schemes.push_back(SchemeSpec::custom(
            "encr-fnw" + std::to_string(bits),
            [bits](const OtpEngine &otp) {
                return std::make_unique<CounterModeEncryption>(
                    otp, true, bits);
            }));
        spec.schemes.push_back(SchemeSpec::custom(
            "nofnw" + std::to_string(bits),
            [bits](const OtpEngine &) {
                return std::make_unique<NoEncryption>(true, bits);
            }));
    }
    SweepResult all = runSweep(spec);

    Table t({"region", "flip bits/line", "Encr+FNW %", "NoEncr+FNW %"});
    for (unsigned bits : {8u, 16u, 32u, 64u}) {
        const auto &encr_rows =
            all["encr-fnw" + std::to_string(bits)];
        const auto &plain_rows =
            all["nofnw" + std::to_string(bits)];
        t.addRow({std::to_string(bits) + "-bit",
                  std::to_string(512 / bits),
                  fmt(averageOf(encr_rows, &ExperimentRow::flipPct), 1),
                  fmt(averageOf(plain_rows, &ExperimentRow::flipPct),
                      1)});
    }
    t.print(std::cout);
    std::cout << "  paper operating point: 16-bit regions, "
                 "Encr+FNW = 43%\n";
}

void
BM_FnwGranularitySweep(benchmark::State &state)
{
    Rng rng(1);
    CacheLine stored, logical;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        stored.limb(i) = rng.next();
        logical.limb(i) = rng.next();
    }
    uint64_t flip_bits = 0;
    for (auto _ : state) {
        FnwResult r = applyFnw(stored, flip_bits, logical,
                               static_cast<unsigned>(state.range(0)));
        flip_bits = r.flipBits;
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_FnwGranularitySweep)->Arg(8)->Arg(16)->Arg(64);

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
