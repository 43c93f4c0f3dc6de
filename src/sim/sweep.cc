/**
 * @file
 * SweepEngine implementation.
 */

#include "sim/sweep.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/report.hh"

namespace deuce
{

SchemeSpec
SchemeSpec::byId(std::string id, std::string label)
{
    SchemeSpec spec;
    spec.id = std::move(id);
    spec.label = std::move(label);
    return spec;
}

SchemeSpec
SchemeSpec::custom(std::string label, SchemeFactory factory)
{
    SchemeSpec spec;
    spec.label = std::move(label);
    spec.factory = std::move(factory);
    return spec;
}

SweepSpec &
SweepSpec::add(const std::string &id, const std::string &label)
{
    schemes.push_back(SchemeSpec::byId(id, label));
    return *this;
}

SweepResult::SweepResult(std::vector<BenchmarkProfile> benchmarks,
                         std::vector<std::string> ids,
                         std::vector<std::string> keys,
                         std::vector<std::vector<ExperimentRow>> grid)
    : benchmarks_(std::move(benchmarks)), ids_(std::move(ids)),
      keys_(std::move(keys)), grid_(std::move(grid))
{
    deuce_assert(keys_.size() == grid_.size() &&
                 ids_.size() == grid_.size());
}

const std::vector<ExperimentRow> &
SweepResult::rows(const std::string &key) const
{
    for (size_t s = 0; s < keys_.size(); ++s) {
        if (keys_[s] == key || ids_[s] == key) {
            return grid_[s];
        }
    }
    deuce_fatal("sweep has no scheme column '" + key + "'");
}

const std::vector<ExperimentRow> &
SweepResult::rows(size_t scheme) const
{
    deuce_assert(scheme < grid_.size());
    return grid_[scheme];
}

const ExperimentRow &
SweepResult::cell(size_t scheme, size_t bench) const
{
    deuce_assert(scheme < grid_.size() &&
                 bench < benchmarks_.size());
    return grid_[scheme][bench];
}

std::vector<ExperimentRow>
SweepResult::flatRows() const
{
    std::vector<ExperimentRow> flat;
    flat.reserve(schemeCount() * benchCount());
    for (const auto &column : grid_) {
        flat.insert(flat.end(), column.begin(), column.end());
    }
    return flat;
}

SweepResult
runSweep(const SweepSpec &spec)
{
    deuce_assert(!spec.schemes.empty());

    std::vector<BenchmarkProfile> benchmarks =
        spec.benchmarks.empty() ? spec2006Profiles()
                                : spec.benchmarks;

    // Resolve every column to a factory up front: unknown ids fail
    // here on the calling thread, and workers share nothing but the
    // (const) spec data.
    std::vector<std::string> ids;
    std::vector<std::string> keys;
    std::vector<SchemeFactory> factories;
    ids.reserve(spec.schemes.size());
    keys.reserve(spec.schemes.size());
    factories.reserve(spec.schemes.size());
    for (const SchemeSpec &scheme : spec.schemes) {
        ids.push_back(scheme.id);
        keys.push_back(scheme.key());
        factories.push_back(scheme.factory
                                ? scheme.factory
                                : schemeFactoryFor(scheme.id));
    }

    std::vector<std::vector<ExperimentRow>> grid(
        spec.schemes.size(),
        std::vector<ExperimentRow>(benchmarks.size()));

    // One task per cell, each writing its pre-assigned grid slot;
    // the pool only decides *when* a cell runs, never what it
    // computes, so any thread count produces the identical grid.
    size_t cells = spec.schemes.size() * benchmarks.size();

    obs::ProgressOptions progress = spec.progress;
    if (!progress.enabled) {
        if (auto env = obs::progressOptionsFromEnv()) {
            progress = *env;
        }
    }
    obs::TelemetryConfig telemetryCfg = spec.telemetry;
    bool telemetryOn = !telemetryCfg.promPath.empty() ||
                       !telemetryCfg.jsonlPath.empty();
    if (!telemetryOn) {
        telemetryOn = obs::telemetryConfigFromEnv(telemetryCfg);
    }

    // With progress or telemetry on, the reporter is the one record
    // of each cell starting and finishing: its heartbeat and the live
    // counters and cell-duration histogram ("sweep.cell", ns) all
    // read it, on one sampler thread. The registry's sources read
    // this frame's reporter, so the sampler stops (joins) first.
    std::unique_ptr<obs::ProgressReporter> reporter;
    obs::StatRegistry telemetryReg;
    std::unique_ptr<obs::TelemetrySampler> sampler;
    if (progress.enabled || telemetryOn) {
        unsigned workers = spec.threads
                               ? spec.threads
                               : ThreadPool::defaultThreadCount();
        reporter = std::make_unique<obs::ProgressReporter>(
            cells, workers, progress);
        const obs::ProgressReporter &rep = *reporter;
        telemetryReg.addIntValue("sweep.cells_started",
                                 "cells a worker has picked up",
                                 [&rep] { return rep.started(); });
        telemetryReg.addIntValue("sweep.cells_finished",
                                 "cells completed",
                                 [&rep] { return rep.done(); });
        sampler = std::make_unique<obs::TelemetrySampler>(
            telemetryReg, telemetryCfg);
        bool slo = spec.cellP99Ns > 0;
        sampler->addLatencySource(
            "sweep.cell", {&rep.cellDurationsNs()},
            slo ? uint16_t{0} : obs::TelemetrySampler::kNoTenant);
        if (slo) {
            obs::SloTarget target;
            target.p99Target = spec.cellP99Ns;
            sampler->slo().setTarget(0, target);
        }
        if (progress.enabled) {
            sampler->attachProgress(*reporter);
        }
        sampler->start();
    }

    DEUCE_TRACE_SCOPE("sweep.run");
    ThreadPool::parallelFor(
        cells,
        [&](uint64_t index) {
            size_t s = index / benchmarks.size();
            size_t b = index % benchmarks.size();

            std::string cell_label;
            if (reporter || obs::traceEnabled()) {
                cell_label = benchmarks[b].name + "/" + keys[s];
            }
            obs::TraceScope span("sweep.cell", cell_label);
            if (reporter) {
                reporter->cellStarted(cell_label);
            }
            auto cell_start = std::chrono::steady_clock::now();

            ExperimentOptions options = spec.options;
            if (spec.deriveCellSeeds) {
                // Key on the factory id where present (stable across
                // different display labels of the same scheme).
                const std::string &scheme_key =
                    ids[s].empty() ? keys[s] : ids[s];
                options.otpSeed = deriveCellSeed(
                    spec.options.otpSeed, benchmarks[b].name,
                    scheme_key);
            }
            grid[s][b] =
                runExperiment(benchmarks[b], factories[s], options);

            if (reporter) {
                std::chrono::duration<double> took =
                    std::chrono::steady_clock::now() - cell_start;
                reporter->cellFinished(cell_label, took.count());
            }
        },
        spec.threads);

    // Join the sampler (one final sample flushes both sinks, then the
    // summary record) before the JSON emission below.
    sampler.reset();

    SweepResult result(std::move(benchmarks), std::move(ids),
                       std::move(keys), std::move(grid));

    if (const char *path = std::getenv("DEUCE_BENCH_JSON")) {
        if (path[0] != '\0') {
            std::ofstream os(path, std::ios::app);
            if (os) {
                writeJsonRows(os, result.flatRows());
            }
        }
    }
    return result;
}

void
printSweepTable(std::ostream &os, const SweepResult &result,
                double ExperimentRow::*field, int precision)
{
    std::vector<std::string> headers = {"bench"};
    for (const std::string &key : result.keys()) {
        headers.push_back(key);
    }
    Table table(headers);
    for (size_t b = 0; b < result.benchCount(); ++b) {
        std::vector<std::string> row = {result.benchmarks()[b].name};
        for (size_t s = 0; s < result.schemeCount(); ++s) {
            row.push_back(fmt(result.cell(s, b).*field, precision));
        }
        table.addRow(row);
    }
    table.addRule();
    std::vector<std::string> avg = {"Avg"};
    for (size_t s = 0; s < result.schemeCount(); ++s) {
        avg.push_back(fmt(averageOf(result.rows(s), field), precision));
    }
    table.addRow(avg);
    table.print(os);
}

} // namespace deuce
