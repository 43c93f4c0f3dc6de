/**
 * @file
 * Progress/heartbeat reporting for long-running cell grids.
 *
 * A ProgressReporter records a fixed population of work cells
 * (sweep cells, lifetime runs) starting and completing across worker
 * threads, and formats two records:
 *
 *  - a human heartbeat line on stderr:
 *      [sweep] 12/39 cells (30.8%) elapsed 4.2s eta 9.8s | mcf/deuce +3
 *  - optionally, one JSON object per heartbeat appended to a file
 *    (JSON Lines), for dashboards tailing a long bench run:
 *      {"type":"progress","label":"sweep","done":12,"total":39,...}
 *
 * The ETA is the mean completed-cell duration scaled by the remaining
 * count and the worker parallelism — cells vary in cost, so the
 * estimate tightens as the mean converges. With zero completed cells
 * the ETA is unknown and reported as -1.
 *
 * The reporter owns no thread: attach it to a TelemetrySampler
 * (obs/telemetry.hh), whose thread calls heartbeat() every
 * kHeartbeatInterval, so a single long cell cannot starve the output,
 * and whose stop() calls summary(). The cell counts and the duration
 * histogram double as the sweep's live telemetry sources.
 * cellStarted()/cellFinished() take a mutex once per cell, which is
 * noise against millisecond-plus cell runtimes.
 */

#ifndef DEUCE_OBS_PROGRESS_HH
#define DEUCE_OBS_PROGRESS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.hh"

namespace deuce
{
namespace obs
{

/** Knobs of a progress reporter (embedded in SweepSpec). */
struct ProgressOptions
{
    /** Master switch; everything below is ignored when false. */
    bool enabled = false;

    /** Append JSON-lines heartbeat records to this path ("" = none). */
    std::string jsonlPath;

    /** Tag in the human line and the JSON records. */
    std::string label = "sweep";
};

/**
 * Parse the DEUCE_PROGRESS environment variable:
 *   unset / "" / "0"  -> nullopt (leave the caller's spec alone)
 *   "1"               -> stderr heartbeat only
 *   anything else     -> stderr heartbeat + JSON lines to that path
 */
std::optional<ProgressOptions> progressOptionsFromEnv();

/** Point-in-time view of a reporter (also the JSON record fields). */
struct ProgressSnapshot
{
    uint64_t done = 0;
    uint64_t total = 0;
    double elapsedSeconds = 0.0;

    /** Estimated seconds to completion; -1 while unknown. */
    double etaSeconds = -1.0;

    /** Mean completed-cell duration; 0 while unknown. */
    double meanCellSeconds = 0.0;

    /** Labels of currently in-flight cells (start order). */
    std::vector<std::string> running;
};

/** Progress record of one grid of cells. */
class ProgressReporter
{
  public:
    /** Heartbeat cadence of an attached TelemetrySampler. */
    static constexpr std::chrono::seconds kHeartbeatInterval{2};

    /**
     * @param total   cells in the grid
     * @param workers worker parallelism, for the ETA (>= 1)
     * @param options where and under what label records go
     */
    ProgressReporter(uint64_t total, unsigned workers,
                     ProgressOptions options);

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    /** A worker began executing the cell labelled @p label. */
    void cellStarted(const std::string &label);

    /** That cell finished after @p seconds. */
    void cellFinished(const std::string &label, double seconds);

    ProgressSnapshot snapshot() const;

    /** Cells started so far. */
    uint64_t started() const;

    /** Cells finished so far. */
    uint64_t done() const;

    /** Finished-cell durations in nanoseconds. */
    const AtomicLog2Histogram &cellDurationsNs() const
    {
        return durationsNs_;
    }

    /** Emit one "progress" record (stderr line + JSON line). */
    void heartbeat();

    /** Emit the final "summary" record. */
    void summary();

  private:
    void emit(const ProgressSnapshot &snap, const char *type);

    ProgressOptions opts_;
    uint64_t total_;
    unsigned workers_;
    std::chrono::steady_clock::time_point start_;
    AtomicLog2Histogram durationsNs_;

    mutable std::mutex mu_;
    uint64_t started_ = 0;
    uint64_t done_ = 0;
    std::vector<std::string> running_;
};

} // namespace obs
} // namespace deuce

#endif // DEUCE_OBS_PROGRESS_HH
