/**
 * @file
 * Shared pieces of the DEUCE benchmark driver: workload streams,
 * the slice/window estimators every host-time metric goes through,
 * the benchmark-side span log, and the result report.
 *
 * Every host-time number comes from many short fixed-size slices of a
 * phase, never from a whole-run total. The end-to-end metrics are read
 * at the fast end of the slices (kFastQuantile): contention on a
 * shared host only ever slows a slice down, and its episodes covered
 * anywhere from none to most of a run, so the median slice moved
 * between runs of the same code while the fastest slices stayed on the
 * uncontended machine. The traced run's per-layer numbers are medians
 * over alternating legs, so the numbers it compares share host load.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/otp_engine.hh"
#include "fault/fault_config.hh"
#include "pcm/config.hh"
#include "persist/persist_config.hh"
#include "serve/request.hh"
#include "sim/memory_system.hh"
#include "trace/event.hh"
#include "trace/synthetic.hh"

namespace perfbench
{

using deuce::CacheLine;
using deuce::TraceEvent;

/** The three workloads, by their command-line names. */
enum class Workload { ReplayDeuce, TimedMlc, ServeBle };

const char *workloadName(Workload w);

struct Args
{
    Workload workload = Workload::ReplayDeuce;
    uint64_t seed = 20150314;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

/** Steady-clock nanoseconds. */
uint64_t nowNs();

/** Median cost of one nowNs() call, subtracted from traced spans. */
uint64_t timerCostNs();

/** q-quantile (0..1) of @p v by nearest rank; reorders @p v. */
double quantile(std::vector<double> &v, double q);

/** Median of @p v (copy). */
double median(std::vector<double> v);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/**
 * Move the calling thread to the next CPU it may run on. On a shared
 * host one or two CPUs can run at two thirds of the others' speed for
 * minutes, and the kernel leaves a busy thread where it started, so a
 * single-threaded run's speed depended on where it landed. Rotating
 * every few dozen slices makes every run sample every CPU.
 */
void rotateCpu();

/** Ids of this process's threads other than the caller's. */
std::vector<pid_t> otherThreads();

/**
 * Pin the caller and each of @p others to a CPU of its own, shifted
 * round the allowed CPUs by @p placement. Left to the kernel, the
 * serving client and shard workers stayed wherever they started for a
 * whole run: sharing a core, or on a slow CPU, in some runs and not in
 * others.
 */
void placeThreads(const std::vector<pid_t> &others, unsigned placement);

/**
 * Slices a single-threaded loop stays on one CPU. Long enough that
 * most latency windows hold no move: the calls just after one run on
 * cold caches and would otherwise set every window's p99.
 */
constexpr uint64_t kSlicesPerCpu = 256;

/**
 * Quantile of the slices and latency windows the host-time end-to-end
 * metrics are read at: the 2nd percentile. Contention only ever slows
 * a slice down, so this stays on the uncontended machine as long as
 * one slice in fifty was; over five seeds on an idle host it spread
 * no more than the 10th, 25th or 50th.
 */
constexpr double kFastQuantile = 0.02;

/**
 * Throughput estimator: the timed phase is cut into slices of a fixed
 * op count (about a millisecond each), each yielding ns/op. Metrics are
 * quantiles of the slices, never a whole-run total.
 */
class SliceClock
{
  public:
    explicit SliceClock(uint64_t slice_ops) : sliceOps_(slice_ops) {}

    void start(uint64_t now) { sliceStart_ = now; pending_ = 0; }

    /** @p n more ops completed at @p now; true when a slice closed. */
    bool
    add(uint64_t n, uint64_t now)
    {
        pending_ += n;
        ops_ += n;
        if (pending_ < sliceOps_) {
            return false;
        }
        nsPerOp_.push_back(static_cast<double>(now - sliceStart_) /
                           static_cast<double>(pending_));
        pending_ = 0;
        sliceStart_ = now;
        return true;
    }

    /** q-quantile (0..1) of ns per op over the closed slices. */
    double
    nsPerOp(double q) const
    {
        std::vector<double> v = nsPerOp_;
        return quantile(v, q);
    }

    /** Median ns per op: the traced run's estimator. */
    double medianNsPerOp() const { return nsPerOp(0.5); }

    /** Thousand ops per second at the kFastQuantile slice. */
    double kopsPerSec() const { return 1e6 / nsPerOp(kFastQuantile); }

    uint64_t slices() const { return nsPerOp_.size(); }
    uint64_t ops() const { return ops_; }

  private:
    uint64_t sliceOps_;
    uint64_t sliceStart_ = 0;
    uint64_t pending_ = 0;
    uint64_t ops_ = 0;
    std::vector<double> nsPerOp_;
};

/**
 * Latency estimator: per-op latencies are grouped into windows of
 * 1024 consecutive samples; each window yields its p50 and p99 (ten
 * samples beyond the p99), and the metrics are read at the
 * kFastQuantile window of each.
 */
class LatencyWindows
{
  public:
    static constexpr std::size_t kWindow = 1024;

    LatencyWindows() { cur_.reserve(kWindow); }

    void
    add(uint64_t ns)
    {
        cur_.push_back(static_cast<double>(ns));
        ++samples_;
        if (cur_.size() == kWindow) {
            p50_.push_back(quantile(cur_, 0.50));
            p99_.push_back(quantile(cur_, 0.99));
            cur_.clear();
        }
    }

    /** The kFastQuantile window's p50 and p99, us. */
    double p50Us() const { return fast(p50_); }
    double p99Us() const { return fast(p99_); }
    uint64_t samples() const { return samples_; }

  private:
    static double
    fast(std::vector<double> v)
    {
        return quantile(v, kFastQuantile) / 1e3;
    }

    std::vector<double> cur_;
    std::vector<double> p50_;
    std::vector<double> p99_;
    uint64_t samples_ = 0;
};

/**
 * Benchmark-side spans (name, start, end, parent), kept in memory and
 * written as Chrome-trace JSON at exit. Bounded: spans past the cap
 * are counted but not kept.
 */
class SpanLog
{
  public:
    static constexpr std::size_t kMaxSpans = 200000;

    /** Open a span; returns its id (-1 when over the cap). */
    int open(const char *name, int parent = -1);
    void close(int id);

    /** Record an already-measured span. */
    int record(const char *name, uint64_t start, uint64_t end,
               int parent = -1);

    bool full() const { return spans_.size() >= kMaxSpans; }

    /** Write the Chrome-trace JSON file; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        uint64_t start;
        uint64_t end;
        int parent;
    };
    std::vector<Span> spans_;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
};

/** What one run prints: the checks and the metrics. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit,
        uint64_t samples)
    {
        metrics.push_back(Metric{name, value, unit, samples});
    }

    /** Record the outcome of one output check. */
    void
    check(bool ok, const std::string &what, uint64_t count = 1);
};

/** The simulator configuration a workload runs under. */
struct Config
{
    std::string scheme;
    deuce::PcmConfig pcm;
    deuce::WearLevelingConfig wl;
    deuce::FaultConfig fault;
    deuce::PersistConfig persist;

    /** The workload's write path: writeBatch(64) bursts. */
    bool batched = false;
};

Config configFor(Workload w, uint64_t seed);

/** Lines per writeBatch() burst on the batched path. */
constexpr unsigned kBurst = 64;

/**
 * A workload's memory-side event stream, generated in full before the
 * timed phase and replayed in passes. Addresses are global lines.
 */
struct Stream
{
    std::vector<TraceEvent> events;
    uint64_t writes = 0;
    uint64_t reads = 0;

    /** Instruction count one pass spans (loops keep icount rising). */
    uint64_t icountSpan = 0;

    /** Install-time plaintext of a line. */
    std::function<CacheLine(uint64_t)> initial;

    /** Median generation time per event, and events generated. */
    double genNsPerEvent = 0.0;
    uint64_t genEvents = 0;

    /** Generators the initial contents come from (Table-2 streams). */
    std::vector<std::unique_ptr<deuce::SyntheticWorkload>> sources;

    /** Last plaintext written to each line over one pass. */
    std::vector<std::pair<uint64_t, CacheLine>> finalContents() const;
};

/**
 * The 12 Table-2 profiles, each in its own address range of 2^14
 * lines and run for the same instruction span, k-way merged on
 * instruction count so any slice of the stream carries the same mix.
 * @param instructions per-profile instruction span
 * @param keep_reads   keep the read misses (else writebacks only)
 */
Stream makeTable2Stream(uint64_t seed, uint64_t instructions,
                        bool keep_reads);

/** Stream sizes: per-profile instruction spans of the Table-2
 *  workloads (~200k merged writebacks for replay-deuce; ~60k
 *  writebacks and ~150k read misses for timed-mlc), and the request
 *  count of serve-ble. */
constexpr uint64_t kReplayInstructions = 3'400'000;
constexpr uint64_t kMlcInstructions = 1'000'000;
constexpr uint64_t kServeRequests = 200'000;

/** serve-ble traffic shape. */
constexpr unsigned kServeTenants = 4;
constexpr unsigned kServeWorkingSet = 4096;
constexpr unsigned kServeShards = 2;
constexpr unsigned kServeWindow = 32;
constexpr unsigned kServeAddrBits = 24;

/**
 * serve-ble requests: 50% reads, Zipf 0.9 addresses over each
 * tenant's working set, writes that change one to three 64-bit words
 * of the line's current contents.
 */
struct RequestStream
{
    std::vector<deuce::serve::Request> requests;
    double genNsPerEvent = 0.0;
    uint64_t genEvents = 0;
};

RequestStream makeServeStream(uint64_t seed, uint64_t n);

/** The same requests as an event stream on global addresses. */
Stream requestsAsStream(const RequestStream &rs);

/** Requests for an event stream (tenant 0, one per event). */
std::vector<deuce::serve::Request> streamAsRequests(const Stream &s);

/**
 * The workload's event stream: replay-deuce keeps the writebacks,
 * cut to whole writeBatch() bursts; timed-mlc keeps the read misses;
 * serve-ble is its request stream on global addresses.
 */
Stream makeStream(Workload w, uint64_t seed);

/** AES pad engine keyed from the workload seed. */
std::unique_ptr<deuce::OtpEngine> makeOtp(uint64_t seed);

/** The untraced run (end-to-end metrics) and the traced run
 *  (per-layer metrics). */
void runWorkload(const Args &args, Report &report, SpanLog &spans);
void runTraced(const Args &args, Report &report, SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
