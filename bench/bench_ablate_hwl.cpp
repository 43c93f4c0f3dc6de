/**
 * @file
 * Ablation: intra-line wear-leveling policy under DEUCE traffic.
 * Compares no rotation, algebraic HWL (the paper's proposal), the
 * hashed HWL hardening of footnote 2, and the classic per-line
 * rotation register (Zhou et al. ISCA-2009) that HWL's zero-storage
 * design displaces.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/memory_system.hh"
#include "trace/synthetic.hh"
#include "wear/lifetime.hh"
#include "wear/rotation.hh"

namespace
{

using namespace deuce;

struct PolicyResult
{
    double lifetime = 0.0; ///< normalised to encrypted memory
    unsigned storageBits = 0;
};

WearTracker
runWear(BenchmarkProfile p, const char *scheme_id,
        WearLevelingConfig::Rotation rot, uint64_t writebacks)
{
    // Concentrate writes so the per-line rotation register (which
    // only advances with writes to its own line) also gets
    // exercised within the simulation window.
    p.workingSetLines = 256;
    SyntheticWorkload workload(
        p, static_cast<uint64_t>(
               writebacks * (p.mpki + p.wbpki) / p.wbpki) + 1);
    auto otp = makeAesOtpEngine(5);
    auto scheme = makeScheme(scheme_id, *otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = true;
    wl.numLines = 16;
    wl.gapWriteInterval = 1;
    wl.rotation = rot;
    MemorySystem memory(*scheme, wl, PcmConfig{},
                        [&](uint64_t addr) {
                            return workload.initialContents(addr);
                        });
    TraceEvent ev;
    while (workload.next(ev)) {
        if (ev.kind == EventKind::Writeback) {
            memory.write(ev.lineAddr, ev.data);
        }
    }
    return memory.wearTracker();
}

PolicyResult
runPolicy(WearLevelingConfig::Rotation rotation, uint64_t writebacks)
{
    unsigned storage = 0;
    auto profiles = spec2006Profiles();

    // Baseline and DEUCE wear runs for every benchmark are mutually
    // independent: one parallel batch of 2 x benchmarks cells, each
    // writing its pre-assigned slot.
    std::vector<WearTracker> encr(profiles.size());
    std::vector<WearTracker> deuce(profiles.size());
    ThreadPool::parallelFor(profiles.size() * 2, [&](uint64_t cell) {
        uint64_t b = cell / 2;
        if (cell % 2 == 0) {
            encr[b] = runWear(profiles[b], "encr",
                              WearLevelingConfig::Rotation::None,
                              writebacks);
        } else {
            deuce[b] = runWear(profiles[b], "deuce", rotation,
                               writebacks);
        }
    });

    double lifetime_sum = 0.0;
    for (size_t b = 0; b < profiles.size(); ++b) {
        lifetime_sum += normalizedLifetime(deuce[b], encr[b]);
    }
    switch (rotation) {
      case WearLevelingConfig::Rotation::PerLine:
        storage = 9; // log2(512)-bit rotation register
        break;
      default:
        storage = 0;
    }
    return {lifetime_sum / static_cast<double>(profiles.size()),
            storage};
}

void
regenerate()
{
    printBanner(std::cout, "Ablation",
                "intra-line wear leveling policy under DEUCE");
    ExperimentOptions opt = benchutil::standardOptions();

    Table t({"policy", "storage bits/line", "lifetime vs Encr"});
    struct Row
    {
        const char *label;
        WearLevelingConfig::Rotation rotation;
    };
    for (const Row &row :
         {Row{"none", WearLevelingConfig::Rotation::None},
          Row{"HWL (paper)", WearLevelingConfig::Rotation::Hwl},
          Row{"HWL hashed (footnote 2)",
              WearLevelingConfig::Rotation::HwlHashed},
          Row{"per-line register",
              WearLevelingConfig::Rotation::PerLine}}) {
        PolicyResult r = runPolicy(row.rotation, opt.writebacks / 2);
        t.addRow({row.label, std::to_string(r.storageBits),
                  fmt(r.lifetime, 2)});
    }
    t.print(std::cout);
    std::cout << "  paper: DEUCE alone 1.11x; DEUCE+HWL 2.0x with "
                 "zero storage\n";
}

void
BM_HwlRotationLookup(benchmark::State &state)
{
    StartGap sg(1 << 16, 100);
    for (int i = 0; i < 54321; ++i) {
        sg.onWrite();
    }
    HwlRotation hwl(sg, state.range(0) != 0);
    uint64_t la = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hwl.rotationFor(la));
        la = (la + 977) % (1 << 16);
    }
}
BENCHMARK(BM_HwlRotationLookup)->Arg(0)->Arg(1);

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
