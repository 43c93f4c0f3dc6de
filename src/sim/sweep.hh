/**
 * @file
 * SweepEngine: declarative execution of experiment grids.
 *
 * Every figure and table of the paper is a grid of independent
 * (benchmark, scheme, options) cells. A SweepSpec *describes* that
 * grid — which benchmarks, which scheme columns, which knobs — and
 * runSweep() executes the cells on a work-stealing thread pool
 * (common/thread_pool.hh), writing each result into its
 * pre-assigned grid slot.
 *
 * Determinism: a cell owns everything it touches (workload, pad
 * engine, scheme, memory system) and its pad seed is derived from the
 * cell's coordinates alone (deriveCellSeed), so the result grid is
 * bit-identical for any thread count, including serial execution.
 *
 * Environment knobs:
 *  - DEUCE_BENCH_THREADS  worker count when SweepSpec::threads == 0
 *                         (default: all hardware threads)
 *  - DEUCE_BENCH_JSON     append every executed cell to this file as
 *                         JSON Lines (sim/report.hh row format)
 *  - DEUCE_PROGRESS       "1" = stderr heartbeat; any other value =
 *                         heartbeat + JSON-lines records to that path
 *                         (only when the spec itself leaves progress
 *                         disabled)
 *  - DEUCE_TELEMETRY      live-telemetry base path: the sweep's
 *                         sampler exports <base>.prom + <base>.jsonl
 *                         while the grid runs (only when the spec
 *                         itself leaves telemetry off);
 *                         DEUCE_TELEMETRY_PERIOD_MS sets the period
 *
 * Every cell runs under a "sweep.cell" trace span labelled
 * "<bench>/<scheme>" (obs/trace.hh), so a traced sweep shows the
 * per-cell schedule across worker threads in Perfetto.
 */

#ifndef DEUCE_SIM_SWEEP_HH
#define DEUCE_SIM_SWEEP_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "enc/scheme_factory.hh"
#include "obs/progress.hh"
#include "obs/telemetry.hh"
#include "sim/experiment.hh"
#include "trace/profile.hh"

namespace deuce
{

/** One scheme column of a sweep. */
struct SchemeSpec
{
    /** Factory id (enc/scheme_factory.hh). Ignored if factory set. */
    std::string id;

    /** Column label for tables/lookup; defaults to id. */
    std::string label;

    /**
     * Custom constructor for configurations not expressible as a
     * factory id (e.g. a Deuce with a non-standard DeuceConfig).
     */
    SchemeFactory factory;

    /** Column spec from a factory id. */
    static SchemeSpec byId(std::string id, std::string label = "");

    /** Column spec from a custom factory. */
    static SchemeSpec custom(std::string label, SchemeFactory factory);

    /** Lookup/table key: label if set, else id. */
    const std::string &key() const { return label.empty() ? id : label; }
};

/** A declarative grid of experiment cells. */
struct SweepSpec
{
    /** Benchmarks (grid rows); empty selects spec2006Profiles(). */
    std::vector<BenchmarkProfile> benchmarks;

    /** Scheme columns. */
    std::vector<SchemeSpec> schemes;

    /** Knobs shared by every cell (seed derivation aside). */
    ExperimentOptions options;

    /** Worker threads; 0 uses ThreadPool::defaultThreadCount(). */
    unsigned threads = 0;

    /**
     * Mix options.otpSeed with each cell's (bench, scheme) key via
     * deriveCellSeed() so cells are independently keyed. Disable to
     * reproduce a single runExperiment() call exactly.
     */
    bool deriveCellSeeds = true;

    /**
     * Progress/heartbeat reporting (obs/progress.hh), emitted by the
     * same sampler thread as the telemetry below. Disabled by
     * default; when left disabled, the DEUCE_PROGRESS environment
     * variable can still switch it on for any sweep.
     */
    obs::ProgressOptions progress;

    /**
     * Live telemetry (obs/telemetry.hh). When a sink path is set —
     * or, with both paths empty, DEUCE_TELEMETRY names a base —
     * runSweep() runs a sampler thread for the duration of the grid:
     * cells-started/finished counters plus a cell-duration histogram
     * ("sweep.cell", nanoseconds), exported periodically.
     */
    obs::TelemetryConfig telemetry;

    /**
     * Per-cell p99 duration SLO in nanoseconds (0 = none). With
     * telemetry on, sampling windows whose cell durations burn the
     * error budget too fast fire a burn-rate alert (obs::SloMonitor)
     * into the flight recorder / stderr.
     */
    double cellP99Ns = 0;

    /** Convenience: append a scheme column by factory id. */
    SweepSpec &add(const std::string &id, const std::string &label = "");
};

/** The executed grid; cells are indexed [scheme column][benchmark]. */
class SweepResult
{
  public:
    SweepResult(std::vector<BenchmarkProfile> benchmarks,
                std::vector<std::string> ids,
                std::vector<std::string> keys,
                std::vector<std::vector<ExperimentRow>> grid);

    /**
     * Rows of one scheme column (one per benchmark, in spec order).
     * @p key matches the column's display key (label, or id when no
     * label was given) or its factory id.
     */
    const std::vector<ExperimentRow> &rows(const std::string &key) const;
    const std::vector<ExperimentRow> &rows(size_t scheme) const;

    /** Bench-bench lookup sugar: result["deuce"][b]. */
    const std::vector<ExperimentRow> &
    operator[](const std::string &key) const
    {
        return rows(key);
    }

    const ExperimentRow &cell(size_t scheme, size_t bench) const;

    const std::vector<BenchmarkProfile> &benchmarks() const
    {
        return benchmarks_;
    }

    /** Scheme-column display keys, in spec order. */
    const std::vector<std::string> &keys() const { return keys_; }

    size_t schemeCount() const { return grid_.size(); }
    size_t benchCount() const { return benchmarks_.size(); }

    /** All cells flattened scheme-major (the JSON emission order). */
    std::vector<ExperimentRow> flatRows() const;

  private:
    std::vector<BenchmarkProfile> benchmarks_;
    std::vector<std::string> ids_;  ///< factory ids ("" for custom)
    std::vector<std::string> keys_; ///< display keys (label or id)
    std::vector<std::vector<ExperimentRow>> grid_;
};

/**
 * Execute every cell of @p spec on a work-stealing pool and collect
 * the grid. Honors DEUCE_BENCH_JSON (see file header). Exceptions
 * from cells propagate after all in-flight cells finish.
 */
SweepResult runSweep(const SweepSpec &spec);

/**
 * Print the classic per-benchmark table of one row field — scheme
 * columns, benchmark rows, and the paper's "Avg" footer.
 */
void printSweepTable(std::ostream &os, const SweepResult &result,
                     double ExperimentRow::*field,
                     int precision = 1);

} // namespace deuce

#endif // DEUCE_SIM_SWEEP_HH
