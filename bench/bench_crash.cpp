/**
 * @file
 * Crash-consistency cost and recovery characterisation (persist/).
 *
 * Part A — runtime overhead of counter persistence: the timing model
 * runs mcf under every persistence policy. Write-through flushes a
 * counter-metadata line on every store; lazy policies amortise the
 * flush over an epoch; the battery-backed queue defers it to power
 * loss. The table reports execution time and metadata writes, and the
 * bench FAILS if write-through is not measurably slower than lazy —
 * the trade the persistence-attack literature is about.
 *
 * Part B — crash + recovery sweep: each (policy, scheme) cell runs
 * the workload to a seeded crash index, loses power, and replays the
 * durable image through the RecoveryEngine. Reported: counter
 * atomicity violations (stale lines), the pad-reuse window a naive
 * resume would have opened, repaired/unrecoverable lines and the
 * modeled recovery time. Hard gates: write-through and battery-backed
 * cells must show a zero reuse window; lazy cells must show a
 * non-zero one (that is the vulnerability).
 *
 * DEUCE_BENCH_JSON appends one JSON line per cell (Part A rows carry
 * the persist_* fields; Part B rows use bench "crash").
 *
 * Micro section: PersistDomain::onWrite and RecoveryEngine::run
 * throughput.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "obs/flight_recorder.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "persist/crash.hh"
#include "persist/persist_domain.hh"
#include "persist/recovery.hh"
#include "sim/memory_system.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace deuce;

/** One persistence-policy column. */
struct PolicyVariant
{
    const char *label;
    PersistConfig::Policy policy;
    unsigned flushEpoch; ///< lazy only
};

constexpr PolicyVariant kPolicies[] = {
    {"wt", PersistConfig::Policy::WriteThrough, 0},
    {"lazy-16", PersistConfig::Policy::Lazy, 16},
    {"lazy-64", PersistConfig::Policy::Lazy, 64},
    {"lazy-256", PersistConfig::Policy::Lazy, 256},
    {"battery-16", PersistConfig::Policy::BatteryBacked, 0},
};

constexpr const char *kSchemes[] = {"encr", "deuce"};

PersistConfig
makePersist(const PolicyVariant &v)
{
    PersistConfig cfg;
    cfg.enabled = true;
    cfg.policy = v.policy;
    if (v.flushEpoch != 0) {
        cfg.flushEpoch = v.flushEpoch;
    }
    cfg.queueDepth = 16;
    cfg.integrity = true;
    return cfg;
}

/** Part A: timing-model runtime per policy (column "off" first). */
bool
partARuntime(std::ostream *json)
{
    printBanner(std::cout, "Crash A",
                "runtime cost of counter persistence (mcf, timing "
                "model)");

    ExperimentOptions base = benchutil::standardOptions();
    base.timing = true;
    base.processReads = true;
    const BenchmarkProfile profile = profileByName("mcf");

    constexpr size_t npolicies = std::size(kPolicies);
    constexpr size_t nschemes = std::size(kSchemes);
    constexpr size_t ncols = npolicies + 1; // + persistence off

    // One task per cell, pre-assigned slots: bit-identical output at
    // any DEUCE_BENCH_THREADS.
    std::vector<std::vector<ExperimentRow>> grid(
        nschemes, std::vector<ExperimentRow>(ncols));
    ThreadPool::parallelFor(nschemes * ncols, [&](uint64_t cell) {
        size_t s = cell / ncols;
        size_t c = cell % ncols;
        ExperimentOptions opt = base;
        if (c > 0) {
            opt.persist = makePersist(kPolicies[c - 1]);
        }
        ExperimentRow row = runExperiment(profile, kSchemes[s], opt);
        row.scheme = std::string(kSchemes[s]) + "+" +
                     (c == 0 ? "off" : kPolicies[c - 1].label);
        grid[s][c] = row;
    });

    Table t({"scheme", "persist", "exec ms", "overhead",
             "meta writes"});
    bool ok = true;
    for (size_t s = 0; s < nschemes; ++s) {
        double off_ns = grid[s][0].executionNs;
        for (size_t c = 0; c < ncols; ++c) {
            const ExperimentRow &row = grid[s][c];
            double over =
                (row.executionNs - off_ns) / off_ns * 100.0;
            t.addRow({kSchemes[s],
                      c == 0 ? "off" : kPolicies[c - 1].label,
                      fmt(row.executionNs / 1e6, 2),
                      c == 0 ? "-" : fmt(over, 1) + "%",
                      std::to_string(row.persistMetaWrites)});
        }
        t.addRule();

        // The trade the policies exist for: write-through must cost
        // measurably more runtime than an epoch-64 lazy flush.
        if (grid[s][1].executionNs <= grid[s][3].executionNs) {
            std::cout << "  FAIL(" << kSchemes[s]
                      << "): write-through not slower than lazy-64\n";
            ok = false;
        }
    }
    t.print(std::cout);
    std::cout << "  (write-through pays a metadata write per store; "
                 "lazy amortises it\n   over the flush epoch)\n";

    if (json) {
        for (const auto &scheme_rows : grid) {
            writeJsonRows(*json, scheme_rows);
        }
    }
    return ok;
}

/** One Part B cell result. */
struct CrashCell
{
    std::string scheme;
    const PolicyVariant *policy = nullptr;
    uint64_t crashIndex = 0;
    RecoveryReport report;
};

/** Part B: crash at a seeded write index, then recover. */
bool
partBCrashRecovery(std::ostream *json)
{
    printBanner(std::cout, "Crash B",
                "crash at a seeded write index + recovery replay "
                "(mcf)");

    const BenchmarkProfile profile = profileByName("mcf");
    const uint64_t writebacks = benchutil::standardOptions().writebacks;

    constexpr size_t npolicies = std::size(kPolicies);
    constexpr size_t nschemes = std::size(kSchemes);

    std::vector<CrashCell> cells(npolicies * nschemes);
    ThreadPool::parallelFor(cells.size(), [&](uint64_t cell) {
        size_t p = cell / nschemes;
        size_t s = cell % nschemes;

        auto otp = makeAesOtpEngine(0xc4a5e + cell);
        auto scheme = makeScheme(kSchemes[s], *otp);
        WearLevelingConfig wl;
        wl.verticalEnabled = false;
        PersistConfig persist = makePersist(kPolicies[p]);
        persist.numLines =
            std::max<uint64_t>(persist.numLines,
                               profile.workingSetLines);

        SyntheticWorkload workload(
            profile,
            static_cast<uint64_t>(writebacks *
                                  (profile.mpki + profile.wbpki) /
                                  profile.wbpki) + 1);
        MemorySystem memory(*scheme, wl, PcmConfig{},
                            [&](uint64_t addr) {
                                return workload.initialContents(addr);
                            },
                            FaultConfig{}, persist);

        // Crash index seeded per cell; odd cells tear the in-flight
        // counter flush to exercise the Merkle-path fallback. Lazy
        // cells crash mid-epoch (flushes land on epoch multiples, so
        // an index just past one would leave nothing stale — a
        // boring, unrepresentative crash).
        uint64_t index =
            CrashInjector::chooseIndex(0x9e1507 + cell, writebacks);
        if (kPolicies[p].policy == PersistConfig::Policy::Lazy) {
            uint64_t epoch = persist.flushEpoch;
            index = index < epoch
                        ? epoch / 2
                        : index - index % epoch + epoch / 2;
        }
        CrashInjector injector(index);
        TraceEvent ev;
        while (workload.next(ev)) {
            if (ev.kind != EventKind::Writeback) {
                continue;
            }
            memory.write(ev.lineAddr, ev.data);
            if (injector.onWrite()) {
                break;
            }
        }
        CrashImage image = memory.crash(cell % 2 == 1);
        RecoveryOutcome out = RecoveryEngine(*scheme).run(image);

        cells[cell].scheme = kSchemes[s];
        cells[cell].policy = &kPolicies[p];
        cells[cell].crashIndex = injector.crashIndex();
        cells[cell].report = out.report;
    });

    Table t({"policy", "scheme", "crash @", "stale", "reuse window",
             "repaired", "lost", "torn", "recovery us"});
    bool ok = true;
    for (const CrashCell &c : cells) {
        const RecoveryReport &r = c.report;
        t.addRow({c.policy->label, c.scheme,
                  std::to_string(c.crashIndex),
                  std::to_string(r.staleLines),
                  std::to_string(r.padReuseWindow),
                  std::to_string(r.repairedLines),
                  std::to_string(r.unrecoverableLines),
                  std::to_string(r.tornPathLines),
                  fmt(r.recoveryNs / 1000.0, 1)});

        bool lazy = c.policy->policy == PersistConfig::Policy::Lazy;
        if (!lazy && (r.staleLines != 0 || r.padReuseWindow != 0)) {
            std::cout << "  FAIL(" << c.policy->label << "/"
                      << c.scheme
                      << "): non-lazy policy left a reuse window\n";
            ok = false;
        }
        if (lazy && r.padReuseWindow == 0) {
            std::cout << "  FAIL(" << c.policy->label << "/"
                      << c.scheme
                      << "): lazy crash shows no reuse window\n";
            ok = false;
        }
        if (r.repairedLines + r.unrecoverableLines != r.staleLines) {
            std::cout << "  FAIL(" << c.policy->label << "/"
                      << c.scheme
                      << "): stale lines not fully resolved\n";
            ok = false;
        }
    }
    t.print(std::cout);
    std::cout << "  (lazy counters open a pad-reuse window the "
                 "recovery must close;\n   write-through and "
                 "battery-backed queues never do)\n";

    if (json) {
        for (const CrashCell &c : cells) {
            const RecoveryReport &r = c.report;
            *json << "{\"bench\":\"crash\",\"scheme\":\"" << c.scheme
                  << "\",\"persist_policy\":\"" << c.policy->label
                  << "\",\"crash_index\":" << c.crashIndex
                  << ",\"stale_lines\":" << r.staleLines
                  << ",\"pad_reuse_window\":" << r.padReuseWindow
                  << ",\"repaired_lines\":" << r.repairedLines
                  << ",\"unrecoverable_lines\":"
                  << r.unrecoverableLines
                  << ",\"torn_path_lines\":" << r.tornPathLines
                  << ",\"recovery_ns\":" << fmt(r.recoveryNs, 1)
                  << "}\n";
        }
    }
    return ok;
}

void
BM_PersistOnWrite(benchmark::State &state)
{
    PersistConfig cfg;
    cfg.enabled = true;
    cfg.policy = PersistConfig::Policy::Lazy;
    cfg.flushEpoch = 64;
    cfg.integrity = true;
    cfg.numLines = 1 << 12;
    PersistDomain domain(cfg);
    StoredLineState st;
    uint64_t line = 0;
    for (auto _ : state) {
        ++st.counter;
        benchmark::DoNotOptimize(domain.onWrite(line++ & 4095, st));
    }
}
BENCHMARK(BM_PersistOnWrite);

void
BM_RecoveryRun(benchmark::State &state)
{
    auto otp = makeAesOtpEngine(11);
    auto scheme = makeScheme("encr", *otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    PersistConfig persist;
    persist.enabled = true;
    persist.policy = PersistConfig::Policy::Lazy;
    persist.flushEpoch = 64;
    persist.numLines = 1 << 10;

    // One fixed image, recovered repeatedly.
    MemorySystem memory(*scheme, wl, PcmConfig{},
                        [](uint64_t) { return CacheLine{}; },
                        FaultConfig{}, persist);
    CacheLine data;
    for (uint64_t i = 0; i < 512; ++i) {
        data.setField(0, 64, i * 0x9e37 + 1);
        memory.write(i & 255, data);
    }
    CrashImage image = memory.crash(false);
    RecoveryEngine engine(*scheme);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(image));
    }
}
BENCHMARK(BM_RecoveryRun);

} // namespace

int
main(int argc, char **argv)
{
    // DEUCE_FLIGHT_RECORDER=<path> arms the flight recorder; the
    // crash-injection cells in Part B then dump the final pre-crash
    // write events at each MemorySystem::crash().
    obs::flightRecorderConfigureFromEnv();

    std::unique_ptr<std::ofstream> json;
    if (const char *path = std::getenv("DEUCE_BENCH_JSON")) {
        if (path[0] != '\0') {
            json = std::make_unique<std::ofstream>(path,
                                                   std::ios::app);
            if (!*json) {
                json.reset();
            }
        }
    }

    bool ok = partARuntime(json.get());
    std::cout << '\n';
    ok = partBCrashRecovery(json.get()) && ok;
    if (!ok) {
        std::cout << "\nCRASH BENCH GATE FAILED\n";
        obs::flightRecorderRecord(obs::FlightEventKind::Gate);
        obs::flightRecorderWriteFile();
        return 1;
    }

    std::cout << "\n--- micro benchmarks ---\n";
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
