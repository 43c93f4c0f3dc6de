/**
 * @file
 * deuce-sim: a command-line front-end for running experiment cells —
 * the entry point a downstream user scripts against. Cells are
 * described as a sweep (benchmarks x schemes) and execute in parallel
 * on the shared worker pool.
 *
 *   $ ./simulate --bench mcf --scheme deuce --writebacks 100000
 *   $ ./simulate --bench all --scheme encr,deuce,dyndeuce --csv
 *   $ ./simulate --bench libq --scheme deuce --timing --mlp 8
 *   $ ./simulate --bench all --scheme deuce --threads 8 --json out.jsonl
 *
 * Options:
 *   --bench <name|all>      benchmark profile (Table 2 names)
 *   --scheme <id[,id...]>   scheme ids (see enc/scheme_factory.hh)
 *   --writebacks <n>        writebacks to simulate (default 60000)
 *   --timing                run the bank-contention timing model
 *   --hwl                   enable horizontal wear leveling
 *   --vwl <startgap|sr>     vertical wear-leveling engine
 *   --aes-backend <b>       AES implementation: auto (default),
 *                           scalar, aesni, vaes, or neon (falls back
 *                           to auto with a warning when the host
 *                           lacks the ISA)
 *   --line-backend <b>      cache-line kernels: auto (default),
 *                           scalar, avx2, or neon (falls back to
 *                           scalar with a warning when the host lacks
 *                           the ISA)
 *   --batch <n>             writeback burst size for the batched
 *                           write pipeline (default 64; 1 replays
 *                           one write at a time; results are
 *                           bit-identical at any value)
 *   --seed <n>              pad key seed
 *   --fault                 enable the end-of-life fault model
 *   --ecp <n>               ECP entries per line (with --fault)
 *   --endurance <flips>     mean cell endurance, in [1, 2^32)
 *                           (with --fault; scaled down from 1e8 for
 *                           tractable runs)
 *   --persist <policy>      enable the counter-persistence model:
 *                           wt (write-through), lazy, or battery
 *   --flush-epoch <n>       writes between lazy counter flushes (>= 1)
 *   --persist-queue <n>     battery-backed write-queue depth (>= 1)
 *   --cell-tech <slc|mlc2>  PCM cell technology: SLC (default) or
 *                           2-bit MLC with per-transition energy and
 *                           latency pricing
 *   --no-persist-integrity  drop the MAC/Merkle metadata (models the
 *                           naive controller persistence attacks hit)
 *   --threads <n>           worker threads (default DEUCE_BENCH_THREADS
 *                           or hardware concurrency)
 *   --csv                   machine-readable one-line-per-cell output
 *   --json <path>           write every cell as JSON Lines to <path>
 *   --stats                 append a gem5-style stats dump per cell
 *   --stats-json            dump per-cell stats (with per-bank and
 *                           histogram detail) as JSON instead of text
 *   --trace-out <path>      write a Chrome trace of the run to <path>
 *                           (open in chrome://tracing or Perfetto)
 *   --trace-level <l>       phase (default) or verbose span detail
 *   --progress              heartbeat progress lines on stderr
 *   --telemetry-out <base>  live telemetry while the sweep runs: a
 *                           periodically rewritten Prometheus text
 *                           file <base>.prom plus an append-only
 *                           time series <base>.jsonl
 *   --telemetry-period-ms <n>  sampling period (default 100)
 *   --slo-p99-us <us>       per-cell p99 duration SLO; burn-rate
 *                           alerts fire when sampling windows exceed
 *                           it too often (needs --telemetry-out)
 *
 * DEUCE_TRACE=<path>, DEUCE_PROGRESS=1 and DEUCE_TELEMETRY=<base> are
 * the environment equivalents of --trace-out / --progress /
 * --telemetry-out for wrapped invocations; DEUCE_FLIGHT_RECORDER=
 * <path> arms the in-memory flight recorder (obs/flight_recorder.hh).
 *
 * Numeric values are parsed strictly: empty input, trailing junk, a
 * sign on an unsigned value, overflow and non-finite reals print the
 * usage line and exit 2, as does an unknown flag or backend name.
 * A configuration error (unknown bench or scheme id, ...) prints
 * "deuce: fatal: <message>" and exits 1; the trace and flight dumps
 * configured so far are still written.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli_parse.hh"
#include "common/line_kernels.hh"
#include "common/logging.hh"
#include "crypto/aes_backend.hh"
#include "obs/flight_recorder.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "enc/scheme_factory.hh"
#include "sim/stats_dump.hh"
#include "sim/sweep.hh"
#include "trace/synthetic.hh"
#include "sim/report.hh"
#include "trace/profile.hh"

namespace
{

using namespace deuce;

struct CliOptions
{
    std::string bench = "all";
    std::vector<std::string> schemes = {"deuce"};
    ExperimentOptions experiment;
    unsigned threads = 0; ///< 0 = DEUCE_BENCH_THREADS / hardware
    std::string jsonPath;
    bool csv = false;
    bool stats = false;
    bool statsJson = false;
    std::string traceOut;
    obs::TraceLevel traceLevel = obs::TraceLevel::Phase;
    bool progress = false;
    std::string telemetryOut;
    uint64_t telemetryPeriodMs = 100;
    double sloP99Us = 0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--bench <name|all>] [--scheme <id[,id...]>]"
                 " [--writebacks <n>] [--timing] [--hwl] [--vwl startgap|sr]"
                 " [--aes-backend auto|scalar|aesni|vaes|neon]"
                 " [--line-backend auto|scalar|avx2|neon]"
                 " [--batch <n>]"
                 " [--seed <n>] [--mlp <x>] [--threads <n>]"
                 " [--fault] [--ecp <n>] [--endurance <flips>]"
                 " [--persist wt|lazy|battery] [--flush-epoch <n>]"
                 " [--persist-queue <n>] [--no-persist-integrity]"
                 " [--cell-tech slc|mlc2]"
                 " [--csv] [--json <path>] [--stats] [--stats-json]"
                 " [--trace-out <path>] [--trace-level phase|verbose]"
                 " [--progress] [--telemetry-out <base>]"
                 " [--telemetry-period-ms <n>] [--slo-p99-us <us>]\n";
    std::exit(2);
}

/** parseUnsigned(), or exit through usage() on a malformed value. */
uint64_t
unsignedArg(const char *argv0, const char *text,
            uint64_t max = std::numeric_limits<uint64_t>::max())
{
    std::optional<uint64_t> v = parseUnsigned(text, max);
    if (!v) {
        usage(argv0);
    }
    return *v;
}

/** parseDouble(), or exit through usage() on a malformed value. */
double
doubleArg(const char *argv0, const char *text)
{
    std::optional<double> v = parseDouble(text);
    if (!v) {
        usage(argv0);
    }
    return *v;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) {
            comma = list.size();
        }
        if (comma > start) {
            out.push_back(list.substr(start, comma - start));
        }
        start = comma + 1;
    }
    return out;
}

CliOptions
parseArgs(int argc, char **argv)
{
    constexpr uint64_t kUintMax = std::numeric_limits<unsigned>::max();
    CliOptions cli;
    cli.experiment.writebacks = 60000;
    cli.experiment.wl.verticalEnabled = true;
    cli.experiment.wl.numLines = 1 << 16;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (arg == "--bench") {
            cli.bench = value();
        } else if (arg == "--scheme") {
            cli.schemes = splitCommas(value());
            if (cli.schemes.empty()) {
                usage(argv[0]);
            }
        } else if (arg == "--writebacks") {
            cli.experiment.writebacks = unsignedArg(argv[0], value());
        } else if (arg == "--timing") {
            cli.experiment.timing = true;
        } else if (arg == "--hwl") {
            cli.experiment.wl.rotation =
                WearLevelingConfig::Rotation::Hwl;
        } else if (arg == "--vwl") {
            std::string engine = value();
            if (engine == "startgap") {
                cli.experiment.wl.engine =
                    WearLevelingConfig::Engine::StartGap;
            } else if (engine == "sr") {
                cli.experiment.wl.engine =
                    WearLevelingConfig::Engine::SecurityRefresh;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--aes-backend") {
            std::optional<AesBackendKind> parsed =
                parseAesBackendName(value());
            if (!parsed) {
                usage(argv[0]);
            }
            setAesBackend(*parsed);
        } else if (arg == "--line-backend") {
            std::optional<LineBackendKind> parsed =
                parseLineBackendName(value());
            if (!parsed) {
                usage(argv[0]);
            }
            setLineBackend(*parsed);
        } else if (arg == "--batch") {
            cli.experiment.writeBatch = static_cast<unsigned>(
                unsignedArg(argv[0], value(), kUintMax));
            if (cli.experiment.writeBatch == 0) {
                usage(argv[0]);
            }
        } else if (arg == "--seed") {
            cli.experiment.otpSeed = unsignedArg(argv[0], value());
        } else if (arg == "--fault") {
            cli.experiment.fault.enabled = true;
        } else if (arg == "--ecp") {
            cli.experiment.fault.ecpEntries = static_cast<unsigned>(
                unsignedArg(argv[0], value(), kUintMax));
        } else if (arg == "--endurance") {
            // Flip counts are 32-bit, so a mean must lie in [1, 2^32).
            double mean = doubleArg(argv[0], value());
            if (!(mean >= 1.0 && mean < 0x1p32)) {
                usage(argv[0]);
            }
            cli.experiment.fault.meanEndurance = mean;
        } else if (arg == "--persist") {
            std::string policy = value();
            cli.experiment.persist.enabled = true;
            if (policy == "wt") {
                cli.experiment.persist.policy =
                    PersistConfig::Policy::WriteThrough;
            } else if (policy == "lazy") {
                cli.experiment.persist.policy =
                    PersistConfig::Policy::Lazy;
            } else if (policy == "battery") {
                cli.experiment.persist.policy =
                    PersistConfig::Policy::BatteryBacked;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--flush-epoch") {
            cli.experiment.persist.flushEpoch =
                unsignedArg(argv[0], value());
            if (cli.experiment.persist.flushEpoch == 0) {
                usage(argv[0]);
            }
        } else if (arg == "--persist-queue") {
            cli.experiment.persist.queueDepth = static_cast<unsigned>(
                unsignedArg(argv[0], value(), kUintMax));
            if (cli.experiment.persist.queueDepth == 0) {
                usage(argv[0]);
            }
        } else if (arg == "--no-persist-integrity") {
            cli.experiment.persist.integrity = false;
        } else if (arg == "--cell-tech") {
            std::string tech = value();
            if (tech == "slc") {
                cli.experiment.pcm.cellTech = CellTech::SLC;
            } else if (tech == "mlc2") {
                cli.experiment.pcm.cellTech = CellTech::MLC2;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--mlp") {
            cli.experiment.timingCfg.mlp = doubleArg(argv[0], value());
        } else if (arg == "--threads") {
            cli.threads = static_cast<unsigned>(
                unsignedArg(argv[0], value(), kUintMax));
        } else if (arg == "--csv") {
            cli.csv = true;
        } else if (arg == "--json") {
            cli.jsonPath = value();
        } else if (arg == "--stats") {
            cli.stats = true;
        } else if (arg == "--stats-json") {
            cli.stats = true;
            cli.statsJson = true;
        } else if (arg == "--trace-out") {
            cli.traceOut = value();
        } else if (arg == "--trace-level") {
            std::string level = value();
            if (level == "phase") {
                cli.traceLevel = obs::TraceLevel::Phase;
            } else if (level == "verbose") {
                cli.traceLevel = obs::TraceLevel::Verbose;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--progress") {
            cli.progress = true;
        } else if (arg == "--telemetry-out") {
            cli.telemetryOut = value();
        } else if (arg == "--telemetry-period-ms") {
            cli.telemetryPeriodMs = unsignedArg(argv[0], value());
            if (cli.telemetryPeriodMs == 0) {
                usage(argv[0]);
            }
        } else if (arg == "--slo-p99-us") {
            cli.sloP99Us = doubleArg(argv[0], value());
        } else {
            usage(argv[0]);
        }
    }
    return cli;
}

void
printCsvHeader()
{
    std::cout << "bench,scheme,flip_pct,avg_slots,tracking_bits,"
                 "writebacks,reads,execution_ns,energy_pj,power_mw,"
                 "edp,wear_nonuniformity\n";
}

void
printCsvRow(const ExperimentRow &r)
{
    std::cout << r.bench << ',' << r.scheme << ',' << r.flipPct << ','
              << r.avgSlots << ',' << r.trackingBits << ','
              << r.writebacks << ',' << r.reads << ','
              << r.executionNs << ',' << r.energyPj << ','
              << r.powerMw << ',' << r.edp << ','
              << r.wearNonUniformity << '\n';
}

/**
 * Re-run one cell with a visible MemorySystem to dump its counters
 * (the experiment runner owns its own instance). Serial by design:
 * dumps interleave with stdout.
 */
void
dumpCellStats(const BenchmarkProfile &p, const std::string &scheme_id,
              const ExperimentOptions &opt, bool json)
{
    std::unique_ptr<OtpEngine> otp = opt.otpEngine(opt.otpSeed);
    auto scheme = makeScheme(scheme_id, *otp);
    SyntheticWorkload workload(
        p, static_cast<uint64_t>(
               opt.writebacks * (p.mpki + p.wbpki) / p.wbpki) + 1);
    MemorySystem memory(*scheme, opt.wl, opt.pcm,
                        [&](uint64_t addr) {
                            return workload.initialContents(addr);
                        });
    TraceEvent ev;
    while (workload.next(ev)) {
        if (ev.kind == EventKind::Writeback) {
            memory.write(ev.lineAddr, ev.data);
        }
    }
    if (json) {
        dumpStatsJson(std::cout, memory, "deuce." + p.name);
        std::cout << '\n';
    } else {
        dumpStats(std::cout, memory, "deuce." + p.name);
    }
}

int
run(int argc, char **argv)
{
    CliOptions cli = parseArgs(argc, argv);

    if (!cli.traceOut.empty()) {
        obs::traceConfigure(cli.traceOut, cli.traceLevel);
    } else {
        obs::traceConfigureFromEnv();
    }
    obs::flightRecorderConfigureFromEnv();

    SweepSpec spec;
    if (cli.bench == "all") {
        spec.benchmarks = spec2006Profiles();
    } else {
        spec.benchmarks.push_back(profileByName(cli.bench));
    }
    for (const std::string &id : cli.schemes) {
        spec.add(id);
    }
    spec.options = cli.experiment;
    spec.threads = cli.threads;
    spec.progress.enabled = cli.progress;
    if (!cli.telemetryOut.empty()) {
        spec.telemetry.promPath = cli.telemetryOut + ".prom";
        spec.telemetry.jsonlPath = cli.telemetryOut + ".jsonl";
        spec.telemetry.periodMs = cli.telemetryPeriodMs;
    }
    spec.cellP99Ns = cli.sloP99Us * 1e3;
    // The CLI takes one explicit seed: every cell uses it verbatim so
    // --seed reproduces the exact pads of older single-cell runs.
    spec.deriveCellSeeds = false;

    SweepResult all = runSweep(spec);

    if (cli.stats) {
        for (const std::string &id : cli.schemes) {
            for (const BenchmarkProfile &p : spec.benchmarks) {
                dumpCellStats(p, id, cli.experiment, cli.statsJson);
            }
        }
    }

    if (!cli.traceOut.empty()) {
        // Flush eagerly so a crash in the reporting below cannot lose
        // the trace (the atexit hook would also write it).
        obs::traceWriteFile();
    }

    if (!cli.jsonPath.empty()) {
        std::ofstream json(cli.jsonPath,
                           std::ios::out | std::ios::trunc);
        if (!json) {
            std::cerr << "cannot open " << cli.jsonPath
                      << " for writing\n";
            return 1;
        }
        writeJsonRows(json, all.flatRows());
    }

    if (cli.csv) {
        printCsvHeader();
        for (const ExperimentRow &r : all.flatRows()) {
            printCsvRow(r);
        }
        return 0;
    }

    for (const std::string &id : cli.schemes) {
        const std::vector<ExperimentRow> &rows = all[id];
        Table t({"bench", "flips %", "slots", "exec (us)",
                 "energy (uJ)", "wear max/avg"});
        for (const ExperimentRow &r : rows) {
            t.addRow({r.bench, fmt(r.flipPct, 1), fmt(r.avgSlots, 2),
                      cli.experiment.timing
                          ? fmt(r.executionNs / 1e3, 1)
                          : std::string("-"),
                      cli.experiment.timing ? fmt(r.energyPj / 1e6, 1)
                                            : std::string("-"),
                      fmt(r.wearNonUniformity, 1)});
        }
        if (rows.size() > 1) {
            t.addRule();
            t.addRow(
                {"Avg", fmt(averageOf(rows, &ExperimentRow::flipPct), 1),
                 fmt(averageOf(rows, &ExperimentRow::avgSlots), 2),
                 "-", "-", "-"});
        }
        std::cout << "scheme: " << rows.front().scheme << "  ("
                  << rows.front().trackingBits
                  << " tracking bits/line";
        if (!rows.front().aesBackend.empty()) {
            std::cout << ", " << rows.front().aesBackend << " pads";
        }
        std::cout << ")\n\n";
        t.print(std::cout);
        if (&id != &cli.schemes.back()) {
            std::cout << '\n';
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        // Returning (instead of letting std::terminate abort) runs the
        // atexit hooks, so configured trace/flight dumps still land.
        std::string_view msg = e.what();
        if (msg.starts_with("fatal: ")) {
            msg.remove_prefix(std::strlen("fatal: "));
        }
        std::cerr << "deuce: fatal: " << msg << '\n';
        return 1;
    }
}
