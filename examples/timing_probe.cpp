/**
 * @file
 * Timing-model calibration probe: prints write slots, speedups,
 * energy/power/EDP per scheme so the TimingConfig defaults can be
 * tuned against the paper's Figures 15-17 anchors:
 *
 *   slots/write: Encr 4.0, Encr+FNW ~3.9, DEUCE 2.64, NoEncr 1.92
 *   speedup vs Encr: Encr+FNW ~1.0, DEUCE 1.27, NoEncr+FNW 1.40
 *   vs Encr: FNW energy 0.89, EDP 0.96; DEUCE energy 0.57, power
 *   0.72, EDP 0.57; NoEncr+FNW EDP 0.44
 */

#include <iostream>
#include <map>
#include <vector>

#include "common/cli_parse.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "trace/profile.hh"

using namespace deuce;

int
main(int argc, char **argv)
{
    ExperimentOptions opt;
    opt.writebacks = 20000;
    opt.timing = true;
    opt.wl.verticalEnabled = false;
    const char *synopsis = "[writebacks] [mlp] [cpi-base]";
    if (argc > 4) {
        usageExit(argv[0], synopsis);
    }
    if (argc > 1) {
        opt.writebacks =
            valueOrUsage(parseUnsigned(argv[1]), argv[0], synopsis);
    }
    if (argc > 2) {
        opt.timingCfg.mlp =
            valueOrUsage(parseDouble(argv[2]), argv[0], synopsis);
    }
    if (argc > 3) {
        opt.timingCfg.cpiBase =
            valueOrUsage(parseDouble(argv[3]), argv[0], synopsis);
    }

    std::vector<std::string> ids = {"encr", "encr-fnw", "deuce",
                                    "nofnw", "nodcw"};
    std::map<std::string, std::vector<ExperimentRow>> rows;
    for (const BenchmarkProfile &p : spec2006Profiles()) {
        for (const auto &id : ids) {
            rows[id].push_back(runExperiment(p, id, opt));
        }
    }

    Table t({"scheme", "slots", "speedup", "energy", "power", "edp"});
    for (const auto &id : ids) {
        double slots = averageOf(rows[id], &ExperimentRow::avgSlots);
        double speedup = geomeanSpeedup(rows["encr"], rows[id],
                                        &ExperimentRow::executionNs);
        double energy = 1.0 / geomeanSpeedup(rows["encr"], rows[id],
                                             &ExperimentRow::energyPj);
        double power = 1.0 / geomeanSpeedup(rows["encr"], rows[id],
                                            &ExperimentRow::powerMw);
        double edp = 1.0 / geomeanSpeedup(rows["encr"], rows[id],
                                          &ExperimentRow::edp);
        t.addRow({id, fmt(slots, 2), fmt(speedup, 2), fmt(energy, 2),
                  fmt(power, 2), fmt(edp, 2)});
    }
    t.print(std::cout);
    std::cout << "\npaper: encr 4.0/1.00 | encr-fnw ~3.9/~1.0 "
                 "(energy .89, edp .96)\n"
                 "       deuce 2.64/1.27 (energy .57, power .72, "
                 "edp .57) | nofnw 1.92-ish/1.40 (edp .44)\n";
    return 0;
}
