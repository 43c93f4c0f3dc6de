/**
 * @file
 * Live serving telemetry: a periodic sampler over the StatRegistry,
 * lock-free hot-path latency histograms, and an SLO monitor.
 *
 * Everything in obs/ before this file was end-of-run: run the sweep,
 * dump the registry once. The serving core needs the opposite — a
 * low-overhead view of the system *while it runs*:
 *
 *  - AtomicLog2Histogram  the hot-path recorder. Fixed 64 atomic
 *    log2 buckets plus sum/min/max; a worker thread records a
 *    completion latency with a handful of relaxed fetch_adds, and the
 *    sampler thread snapshots it concurrently without locks into a
 *    plain Log2Histogram (obs/stat.hh), which merges shards, takes
 *    the delta between ticks, and gives percentiles and the
 *    fraction above a threshold. No sample vectors anywhere: memory
 *    is O(64) per histogram regardless of request count.
 *  - SloMonitor           per-tenant p99 targets with error-budget
 *    burn-rate alerting. Each sampling window, the fraction of
 *    requests slower than the target is divided by the allowed budget
 *    fraction; a burn rate at or above the alert threshold fires, and
 *    it must fall below the (lower) clear threshold to clear —
 *    hysteresis, so a rate hovering at the edge does not flap.
 *  - TelemetrySampler     the one periodic thread in obs/. Every
 *    period it walks the scalar stats of a caller-provided
 *    StatRegistry, computes deltas and rates, snapshots the
 *    registered latency sources and queue depths, evaluates the SLO
 *    monitor, rewrites a Prometheus text-exposition file
 *    (atomically: temp + rename), and appends one JSON line to a
 *    time-series sink. With a ProgressReporter attached, the same
 *    thread emits its heartbeat every 2 s and stop() its summary.
 *
 * Thread-safety contract: the sampler reads the registry from its own
 * thread while workers run, so callers must hand it a registry whose
 * scalar sources are atomic-backed (see
 * ShardedMemorySystem::registerTelemetry, ThreadPool's counters).
 * Registering a functor that reads a plain worker-local counter is a
 * data race — keep those in the end-of-run registry.
 */

#ifndef DEUCE_OBS_TELEMETRY_HH
#define DEUCE_OBS_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/stat.hh"

namespace deuce
{
namespace obs
{

class ProgressReporter;
class StatRegistry;

/**
 * Lock-free recorder for a Log2Histogram: the same 64 buckets and
 * sum/min/max over atomics (the count is the buckets' sum), so a
 * concurrent reader needs no coordination. Writers use relaxed RMWs;
 * typically one writer per instance (a shard worker), but multiple
 * writers are safe — the min/max CAS loops and bucket adds commute.
 */
class AtomicLog2Histogram
{
  public:
    /** Record one sample (hot path: 2 relaxed RMWs + 2 CAS loops). */
    void add(uint64_t x);

    /**
     * The recorded samples as a plain histogram (safe against
     * concurrent writers). Relaxed loads: the copy may miss a sample
     * still in flight in some fields; min/max read as unknown until
     * the first sample has set both.
     */
    Log2Histogram snapshot() const;

  private:
    std::atomic<uint64_t> buckets_[Log2Histogram::kBuckets] = {};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> min_{UINT64_MAX};
    std::atomic<uint64_t> max_{0};
};

/** One tenant's SLO: a latency target plus an error budget. Units of
 *  the target match the histogram samples (nanoseconds throughout the
 *  serving wiring). */
struct SloTarget
{
    double p99Target = 0;        ///< latency bound (same unit as samples)
    double budgetFraction = 0.01;///< allowed fraction above the bound
    double burnAlert = 2.0;      ///< fire at burn rate >= this
    double burnClear = 1.0;      ///< clear at burn rate < this
};

/**
 * Error-budget burn-rate alerting over per-window latency snapshots.
 * Burn rate = (fraction of the window's samples above the target) /
 * budgetFraction: 1.0 means spending the budget exactly as fast as
 * allowed. Alerts have hysteresis (fire >= burnAlert, clear <
 * burnClear); an empty window leaves the alert state unchanged.
 *
 * Not thread-safe; owned and driven by the sampler thread (or a
 * test).
 */
class SloMonitor
{
  public:
    /** What one observation window concluded. */
    struct Verdict
    {
        double badFraction = 0; ///< fraction of window above target
        double burnRate = 0;
        bool firing = false;    ///< alert state after this window
        bool fired = false;     ///< this window triggered the alert
        bool cleared = false;   ///< this window cleared the alert
    };

    /** Set (or replace) @p tenant's target. */
    void setTarget(uint16_t tenant, const SloTarget &target);

    bool hasTarget(uint16_t tenant) const;

    /** Evaluate one window of @p tenant's latency. */
    Verdict observe(uint16_t tenant, const Log2Histogram &window);

    /** Is @p tenant's alert currently firing? */
    bool firing(uint16_t tenant) const;

    uint64_t alertsFired() const { return fired_; }
    uint64_t alertsCleared() const { return cleared_; }

  private:
    struct State
    {
        SloTarget target;
        bool firing = false;
    };

    std::map<uint16_t, State> states_;
    uint64_t fired_ = 0;
    uint64_t cleared_ = 0;
};

/** Where and how often the sampler exports. */
struct TelemetryConfig
{
    uint64_t periodMs = 100;
    std::string promPath;  ///< Prometheus text file ("" = skip)
    std::string jsonlPath; ///< append-only JSONL sink ("" = skip)
};

/**
 * Parse DEUCE_TELEMETRY=<base> (files <base>.prom + <base>.jsonl) and
 * DEUCE_TELEMETRY_PERIOD_MS=<n>. @return true when the env enabled
 * telemetry (config filled in).
 */
bool telemetryConfigFromEnv(TelemetryConfig &config);

/**
 * The sampler thread. Construct against a live-safe registry,
 * register latency/queue sources and SLO targets, start(), run the
 * workload, stop() (which takes one final sample so short runs still
 * export). sampleOnce() is the synchronous core, exposed for tests
 * and usable without ever starting the thread.
 */
class TelemetrySampler
{
  public:
    /** Marker for latency sources not tied to an SLO tenant. */
    static constexpr uint16_t kNoTenant = 0xffff;

    /** One scalar stat's reading within a sample. */
    struct SampledValue
    {
        std::string name;
        double value = 0;  ///< current reading
        double delta = 0;  ///< change since the previous sample
        bool monotone = false; ///< Int-kind scalar → Prom counter
    };

    /** One latency source's window summary (values in source units,
     *  nanoseconds in the serving wiring). */
    struct SampledLatency
    {
        std::string name;
        uint16_t tenant = kNoTenant;
        uint64_t count = 0;      ///< cumulative samples
        uint64_t windowCount = 0;///< samples this window
        double p50 = 0, p99 = 0, p999 = 0; ///< cumulative percentiles
        SloMonitor::Verdict verdict; ///< meaningful when tenant set
    };

    /** One queue's reading. */
    struct SampledQueue
    {
        std::string name;
        uint64_t depth = 0;
        uint64_t capacity = 0;
        bool breached = false; ///< depth >= watermark this tick
    };

    /** Everything one tick produced. */
    struct Sample
    {
        uint64_t seq = 0;
        uint64_t tsNs = 0; ///< since sampler construction
        uint64_t dtNs = 0; ///< since the previous sample (0 on first)
        std::vector<SampledValue> values;
        std::vector<SampledLatency> latencies;
        std::vector<SampledQueue> queues;
    };

    /**
     * @p registry must outlive the sampler and contain only
     * atomic-backed scalar sources (see file header). Histogram stats
     * in the registry are ignored — register latency via
     * addLatencySource.
     */
    TelemetrySampler(const StatRegistry &registry,
                     TelemetryConfig config);
    ~TelemetrySampler();

    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /**
     * Register a latency source: the @p parts (e.g. one histogram per
     * shard) are snapshotted and merged each tick. With @p tenant set
     * and a matching SLO target, each tick's window feeds the
     * monitor. The histograms must outlive the sampler.
     */
    void addLatencySource(const std::string &name,
                          std::vector<const AtomicLog2Histogram *> parts,
                          uint16_t tenant = kNoTenant);

    /**
     * Register a queue-depth gauge with a high watermark at fraction
     * @p watermark of @p capacity; a tick seeing depth at or above it
     * counts a breach and records a flight-recorder stall event.
     * @p depth must be safe to call from the sampler thread.
     */
    void addQueueSource(const std::string &name,
                        std::function<uint64_t()> depth,
                        uint64_t capacity, double watermark = 0.9);

    /** The SLO monitor (configure targets before start()). */
    SloMonitor &slo() { return slo_; }

    /**
     * Drive @p reporter from this sampler: the thread emits its
     * heartbeat every ProgressReporter::kHeartbeatInterval, and stop()
     * emits its summary record. @p reporter must outlive the sampler.
     */
    void attachProgress(ProgressReporter &reporter);

    /** Launch the sampling thread. No-op when already running. */
    void start();

    /**
     * Stop the thread after one final sample, flushing both sinks,
     * and emit the attached reporter's summary. Idempotent; also
     * called by the destructor.
     */
    void stop();

    /** Take one sample now (synchronous; the thread's tick body). */
    Sample sampleOnce();

    uint64_t samplesTaken() const
    {
        return samples_.load(std::memory_order_relaxed);
    }

    uint64_t watermarkBreaches() const
    {
        return breaches_.load(std::memory_order_relaxed);
    }

    /** The most recent sample. Call only while the thread is not
     *  running (tests; after stop()). */
    const Sample &lastSample() const { return last_; }

    /** Write @p sample in Prometheus text exposition to @p os. */
    void writeProm(std::ostream &os, const Sample &sample) const;

    /** Write @p sample as one JSON object line to @p os. */
    void writeJsonl(std::ostream &os, const Sample &sample) const;

  private:
    struct LatencySource
    {
        std::string name;
        std::vector<const AtomicLog2Histogram *> parts;
        uint16_t tenant = kNoTenant;
        Log2Histogram prev;
    };

    struct QueueSource
    {
        std::string name;
        std::function<uint64_t()> depth;
        uint64_t capacity = 0;
        uint64_t watermark = 0;
    };

    void threadLoop();
    uint64_t nowNs() const;

    const StatRegistry &registry_;
    TelemetryConfig config_;
    SloMonitor slo_;
    ProgressReporter *progress_ = nullptr;

    std::vector<LatencySource> latencySources_;
    std::vector<QueueSource> queueSources_;
    std::vector<double> prevValues_; ///< previous scalar readings

    std::chrono::steady_clock::time_point epoch_;
    uint64_t prevTsNs_ = 0;
    Sample last_;
    std::atomic<uint64_t> samples_{0};
    std::atomic<uint64_t> breaches_{0};

    std::mutex mu_;
    std::condition_variable cv_;
    bool stopRequested_ = false;
    bool running_ = false;
    std::thread thread_;
};

/** Sanitize a dotted stat name into a Prometheus metric name:
 *  "serve.shard0.served" -> "deuce_serve_shard0_served". */
std::string prometheusName(const std::string &statName);

} // namespace obs
} // namespace deuce

#endif // DEUCE_OBS_TELEMETRY_HH
