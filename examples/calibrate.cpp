/**
 * @file
 * Calibration tool: prints the per-benchmark bit-flip percentages of
 * every scheme so the workload profiles in trace/profile.cc can be
 * tuned against the paper's anchor measurements:
 *
 *   NoEncr+DCW 12.2-12.4%   NoEncr+FNW 10.5%
 *   Encr+DCW   50%          Encr+FNW   43%
 *   DEUCE-2B-e32 23.7%      DynDEUCE 22.0%   DEUCE+FNW 20.3%
 *   BLE 33%                 BLE+DEUCE 19.9%
 *
 * Not part of the reproduced figures itself; see bench/ for those.
 * Each grid is one parallel sweep (sim/sweep.hh).
 */

#include <iostream>

#include "common/cli_parse.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "trace/profile.hh"

using namespace deuce;

int
main(int argc, char **argv)
{
    const char *synopsis = "[writebacks]";
    if (argc > 2) {
        usageExit(argv[0], synopsis);
    }
    uint64_t writebacks = 30000;
    if (argc > 1) {
        writebacks =
            valueOrUsage(parseUnsigned(argv[1]), argv[0], synopsis);
    }

    ExperimentOptions opt;
    opt.writebacks = writebacks;
    opt.wl.verticalEnabled = false;

    // Full scheme panel.
    SweepSpec panel;
    panel.benchmarks = spec2006Profiles();
    panel.options = opt;
    for (const char *id : {"nodcw", "nofnw", "encr", "encr-fnw",
                           "deuce", "dyndeuce", "deuce-fnw", "ble",
                           "ble-deuce"}) {
        panel.add(id);
    }
    printSweepTable(std::cout, runSweep(panel),
                    &ExperimentRow::flipPct);

    // Epoch sweep for DEUCE (Figure 9 anchors: 24.8 / 24.0 / 23.7).
    std::cout << "\nDEUCE epoch sweep (2B words):\n";
    SweepSpec epochs;
    epochs.benchmarks = spec2006Profiles();
    epochs.options = opt;
    epochs.add("deuce-e8", "e8")
        .add("deuce-e16", "e16")
        .add("deuce-e32", "e32");
    printSweepTable(std::cout, runSweep(epochs),
                    &ExperimentRow::flipPct);

    // Word-size sweep (Figure 8 anchors: 21.4 / 23.7 / 26.8 / 32.2).
    std::cout << "\nDEUCE word-size sweep (epoch 32):\n";
    SweepSpec words;
    words.benchmarks = spec2006Profiles();
    words.options = opt;
    words.add("deuce-1b", "1B")
        .add("deuce-2b", "2B")
        .add("deuce-4b", "4B")
        .add("deuce-8b", "8B");
    printSweepTable(std::cout, runSweep(words),
                    &ExperimentRow::flipPct);

    return 0;
}
