/**
 * @file
 * Scenario: endurance planning for a PCM deployment.
 *
 * Given a sustained writeback rate, estimate how many years a 32GB
 * encrypted PCM module lasts under each scheme / wear-leveling
 * combination, using measured per-bit wear profiles from a
 * representative workload. This is the capacity-planning question a
 * deployment engineer actually asks of Figure 14.
 *
 *   $ ./lifetime_planner [benchmark] [writes_per_second]
 */

#include <iostream>
#include <string>

#include "common/cli_parse.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/memory_system.hh"
#include "sim/report.hh"
#include "trace/synthetic.hh"
#include "wear/lifetime.hh"

namespace
{

using namespace deuce;

WearTracker
profileWear(const BenchmarkProfile &profile,
            const std::string &scheme_id,
            WearLevelingConfig::Rotation rotation)
{
    BenchmarkProfile p = profile;
    p.workingSetLines = 2048;
    SyntheticWorkload workload(p, 120000);
    auto otp = makeAesOtpEngine(21);
    auto scheme = makeScheme(scheme_id, *otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = true;
    wl.numLines = 16;        // time-scaled Start-Gap (see bench_fig14)
    wl.gapWriteInterval = 1;
    wl.rotation = rotation;
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

} // namespace

int
main(int argc, char **argv)
{
    const char *synopsis = "[benchmark] [writes_per_second]";
    if (argc > 3) {
        usageExit(argv[0], synopsis);
    }
    std::string bench = argc > 1 ? argv[1] : "mcf";
    double writes_per_second = 50e6; // 50M writebacks/s
    if (argc > 2) {
        writes_per_second =
            valueOrUsage(parseDouble(argv[2]), argv[0], synopsis);
        if (writes_per_second <= 0) {
            usageExit(argv[0], synopsis);
        }
    }

    BenchmarkProfile profile = profileByName(bench);
    PcmConfig pcm;

    // The module stripes lines across its full capacity; vertical
    // wear leveling spreads line writes evenly, so the per-line write
    // rate is total rate / number of lines.
    const double total_lines = 32.0 * (1ull << 30) / 64.0;
    double line_writes_per_second = writes_per_second / total_lines;

    std::cout << "workload " << bench << ", "
              << writes_per_second / 1e6
              << "M writebacks/s into 32GB PCM (endurance "
              << pcm.cellEndurance << " flips/cell)\n\n";

    Table t({"configuration", "hot-bit flips/write", "years to wear-out"});
    struct Config
    {
        const char *label;
        const char *scheme;
        WearLevelingConfig::Rotation rotation;
    };
    for (const Config &c :
         {Config{"Encr (baseline)", "encr",
                 WearLevelingConfig::Rotation::None},
          Config{"Encr+FNW", "encr-fnw",
                 WearLevelingConfig::Rotation::None},
          Config{"DEUCE", "deuce", WearLevelingConfig::Rotation::None},
          Config{"DEUCE+HWL", "deuce",
                 WearLevelingConfig::Rotation::Hwl},
          Config{"DEUCE+HWL(hashed)", "deuce",
                 WearLevelingConfig::Rotation::HwlHashed}}) {
        WearTracker wear = profileWear(profile, c.scheme, c.rotation);
        LifetimeEstimate est = estimateLifetime(wear, pcm);
        double seconds =
            est.writesToFailure / line_writes_per_second;
        double years = seconds / (365.25 * 24 * 3600);
        t.addRow({c.label, fmt(est.maxFlipRate, 3), fmt(years, 1)});
    }
    t.print(std::cout);

    std::cout << "\nDEUCE+HWL should last ~2x the encrypted baseline "
                 "(Figure 14).\n";
    return 0;
}
