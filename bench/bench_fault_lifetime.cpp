/**
 * @file
 * Fault lifetime: writes until the first uncorrectable error, per
 * scheme and per ECP size.
 *
 * The paper argues encryption's ~50% flip rate wears PCM out ~2x
 * faster; the figure benches show that as a flip-rate *extrapolation*
 * (bench_fig14). This bench closes the loop with the fault subsystem
 * (src/fault): cells sample finite endurance, fail, get corrected by
 * ECP entries, and the table reports how many line writes each scheme
 * survives before the first *uncorrectable* error — DEUCE's flip
 * reduction translating directly into endurance at every ECP size.
 *
 * Endurance is scaled down (FaultConfig::meanEndurance) so the memory
 * actually dies within the simulation; the scheme *ratios* are what
 * the paper's lifetime projection predicts. All cells share one
 * endurance seed, so every scheme faces the identical cell-budget map.
 *
 * Micro section: CellFaultMap::recordWrite throughput over a hot and a
 * cold line set.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "fault/cell_fault_map.hh"
#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/memory_system.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace deuce;

/** One scheme column of the lifetime grid. */
struct SchemeVariant
{
    const char *id;
    const char *label;
    WearLevelingConfig::Rotation rotation;
};

constexpr SchemeVariant kSchemes[] = {
    {"encr", "Encr", WearLevelingConfig::Rotation::None},
    {"encr-fnw", "Encr+FNW", WearLevelingConfig::Rotation::None},
    {"deuce", "DEUCE", WearLevelingConfig::Rotation::None},
    {"deuce", "DEUCE+HWL", WearLevelingConfig::Rotation::Hwl},
};

constexpr unsigned kEcpSizes[] = {0, 2, 4, 8};

/** Endurance scaled so end-of-life arrives within the budget. */
constexpr double kMeanEndurance = 1500.0;
constexpr double kEnduranceSigma = 0.2;
constexpr uint64_t kFaultSeed = 0xec9fau; // shared by every cell

/** Safety cap on line writes per cell (never hit at these knobs). */
constexpr uint64_t kWritebackCap = 4000000;

/**
 * Drive one (scheme, ECP) cell until its first uncorrectable error.
 * @return the completed cell row (fault counters populated)
 */
ExperimentRow
runToFirstUncorrectable(const BenchmarkProfile &profile,
                        const SchemeVariant &variant, unsigned ecp)
{
    BenchmarkProfile p = profile;
    p.workingSetLines = 256; // concentrated, as in bench_fig14

    auto otp = makeAesOtpEngine(7);
    auto scheme = makeScheme(variant.id, *otp);

    WearLevelingConfig wl;
    wl.rotation = variant.rotation;
    if (variant.rotation == WearLevelingConfig::Rotation::None) {
        wl.verticalEnabled = false;
    } else {
        wl.verticalEnabled = true;
        wl.numLines = 16; // time-scaled Start-Gap (see bench_fig14)
        wl.gapWriteInterval = 1;
    }

    FaultConfig fault;
    fault.enabled = true;
    fault.meanEndurance = kMeanEndurance;
    fault.enduranceSigma = kEnduranceSigma;
    fault.seed = kFaultSeed;
    fault.ecpEntries = ecp;

    SyntheticWorkload workload(
        p, static_cast<uint64_t>(kWritebackCap *
                                 (p.mpki + p.wbpki) / p.wbpki) + 1);
    MemorySystem memory(*scheme, wl, PcmConfig{},
                        [&](uint64_t addr) {
                            return workload.initialContents(addr);
                        },
                        fault);

    TraceEvent ev;
    while (workload.next(ev)) {
        if (ev.kind != EventKind::Writeback) {
            continue;
        }
        WriteOutcome out = memory.write(ev.lineAddr, ev.data);
        if (out.faultUncorrectable) {
            break;
        }
    }

    const FaultStats &fs = memory.fault()->stats();
    ExperimentRow row;
    row.bench = p.name + "-ecp" + std::to_string(ecp);
    row.scheme = variant.label;
    row.flipPct = memory.flipStat().mean() * 100.0;
    row.avgSlots = memory.slotStat().mean();
    row.trackingBits = scheme->trackingBitsPerLine();
    row.writebacks = fs.writes;
    row.faultEnabled = true;
    row.stuckCells = fs.stuckCells;
    row.correctedWrites = fs.correctedWrites;
    row.uncorrectableErrors = fs.uncorrectableErrors;
    row.decommissionedLines = fs.decommissionedLines;
    row.writesToFirstUncorrectable = fs.firstUncorrectableWrite;
    return row;
}

void
regenerate()
{
    printBanner(std::cout, "Fault lifetime",
                "writes to first uncorrectable error (mcf, 256 lines, "
                "endurance " + fmt(kMeanEndurance, 0) + " flips/cell)");

    const BenchmarkProfile profile = profileByName("mcf");
    constexpr size_t nschemes = std::size(kSchemes);
    constexpr size_t necp = std::size(kEcpSizes);

    // These cells run to end-of-life and don't go through runSweep,
    // so the heartbeat reporter and the sampler thread that drives it
    // are wired explicitly (DEUCE_PROGRESS).
    obs::traceConfigureFromEnv();
    std::unique_ptr<obs::ProgressReporter> reporter;
    obs::StatRegistry no_stats;
    std::unique_ptr<obs::TelemetrySampler> heartbeat;
    if (auto popt = obs::progressOptionsFromEnv()) {
        popt->label = "fault-lifetime";
        reporter = std::make_unique<obs::ProgressReporter>(
            necp * nschemes, ThreadPool::defaultThreadCount(), *popt);
        heartbeat = std::make_unique<obs::TelemetrySampler>(
            no_stats, obs::TelemetryConfig{});
        heartbeat->attachProgress(*reporter);
        heartbeat->start();
    }

    // One task per (ECP, scheme) cell, each writing its pre-assigned
    // slot: bit-identical output at any DEUCE_BENCH_THREADS.
    std::vector<std::vector<ExperimentRow>> grid(
        necp, std::vector<ExperimentRow>(nschemes));
    ThreadPool::parallelFor(necp * nschemes, [&](uint64_t cell) {
        size_t e = cell / nschemes;
        size_t s = cell % nschemes;

        std::string label;
        if (reporter || obs::traceEnabled()) {
            label = std::string(kSchemes[s].label) + "-ecp" +
                    std::to_string(kEcpSizes[e]);
        }
        obs::TraceScope span("lifetime.cell", label);
        if (reporter) {
            reporter->cellStarted(label);
        }
        auto start = std::chrono::steady_clock::now();

        grid[e][s] = runToFirstUncorrectable(profile, kSchemes[s],
                                             kEcpSizes[e]);

        if (reporter) {
            std::chrono::duration<double> took =
                std::chrono::steady_clock::now() - start;
            reporter->cellFinished(label, took.count());
        }
    });
    heartbeat.reset(); // emits the summary record

    std::vector<std::string> headers = {"ECP entries"};
    for (const SchemeVariant &v : kSchemes) {
        headers.push_back(v.label);
    }
    headers.push_back("DEUCE/Encr");
    Table t(headers);
    for (size_t e = 0; e < necp; ++e) {
        std::vector<std::string> row = {
            std::to_string(kEcpSizes[e])};
        for (size_t s = 0; s < nschemes; ++s) {
            row.push_back(std::to_string(
                grid[e][s].writesToFirstUncorrectable));
        }
        double ratio =
            static_cast<double>(
                grid[e][2].writesToFirstUncorrectable) /
            static_cast<double>(
                grid[e][0].writesToFirstUncorrectable);
        row.push_back(fmt(ratio, 2) + "x");
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout << "\n  DEUCE flip reduction becomes endurance: the "
                 "DEUCE/Encr column stays > 1 at every ECP size.\n";

    if (const char *path = std::getenv("DEUCE_BENCH_JSON")) {
        if (path[0] != '\0') {
            std::ofstream os(path, std::ios::app);
            if (os) {
                for (const auto &ecp_row : grid) {
                    writeJsonRows(os, ecp_row);
                }
            }
        }
    }
}

/**
 * One recordWrite per iteration, cycling over state.range(0) lines: 64
 * stay hot in cache; 2^15 is timed-mlc's line set, whose records miss.
 * Every line is written once before timing, so first touches stay out
 * of the loop.
 */
void
BM_FaultMapRecordWrite(benchmark::State &state)
{
    const uint64_t line_mask = static_cast<uint64_t>(state.range(0)) - 1;
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.meanEndurance = 1e6;
    CellFaultMap map(cfg);
    Rng rng(5);
    CacheLine flips, image;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        image.limb(i) = rng.next();
    }
    for (uint64_t line = 0; line <= line_mask; ++line) {
        map.recordWrite(line, flips, image);
    }
    uint64_t line = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
            flips.limb(i) = rng.next() & rng.next();
        }
        benchmark::DoNotOptimize(
            map.recordWrite(line++ & line_mask, flips, image));
    }
}
BENCHMARK(BM_FaultMapRecordWrite)->Arg(64)->Arg(1 << 15);

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
