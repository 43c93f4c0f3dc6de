/**
 * @file
 * Ablation: write-slot provisioning. The paper models 128-bit slots
 * with a 64-flip current budget (Section 6.1); this sweep varies the
 * slot width and shows how slot counts and DEUCE's advantage react.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench_common.hh"
#include "common/rng.hh"
#include "pcm/write_slots.hh"

namespace
{

using namespace deuce;

void
regenerate()
{
    printBanner(std::cout, "Ablation",
                "write-slot width vs slots per write");
    ExperimentOptions opt = benchutil::standardOptions();

    Table t({"slot width", "slots/line", "Encr", "DEUCE", "NoEncr",
             "DEUCE saving"});
    for (unsigned bits : {64u, 128u, 256u}) {
        opt.pcm.slotBits = bits;
        opt.pcm.slotFlipBudget = bits / 2;

        SweepSpec spec;
        spec.options = opt;
        spec.add("encr").add("deuce").add("nodcw");
        SweepResult all = runSweep(spec);
        std::map<std::string, double> slots;
        for (const char *id : {"encr", "deuce", "nodcw"}) {
            slots[id] = averageOf(all[id], &ExperimentRow::avgSlots);
        }
        t.addRow({std::to_string(bits) + "-bit",
                  std::to_string(512 / bits), fmt(slots["encr"], 2),
                  fmt(slots["deuce"], 2), fmt(slots["nodcw"], 2),
                  fmt((1.0 - slots["deuce"] / slots["encr"]) * 100.0,
                      0) + "%"});
    }
    t.print(std::cout);
    std::cout << "  paper operating point: 128-bit slots; Encr 4.0, "
                 "DEUCE 2.64, NoEncr 1.92\n";
}

void
BM_SlotCountVsWidth(benchmark::State &state)
{
    PcmConfig cfg;
    cfg.slotBits = static_cast<unsigned>(state.range(0));
    cfg.slotFlipBudget = cfg.slotBits / 2;
    Rng rng(2);
    CacheLine diff;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        diff.limb(i) = rng.next() & rng.next() & rng.next();
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(slotsForWrite(diff, 2, cfg));
    }
}
BENCHMARK(BM_SlotCountVsWidth)->Arg(64)->Arg(128)->Arg(256);

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
