/**
 * @file
 * Telemetry sampler implementation.
 */

#include "obs/telemetry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/output.hh"
#include "obs/registry.hh"

namespace deuce
{
namespace obs
{

// ---------------------------------------------------------------------
// AtomicLog2Histogram

AtomicLog2Histogram::AtomicLog2Histogram()
{
    for (auto &b : buckets_) {
        b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<uint64_t>::max(),
               std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

unsigned
AtomicLog2Histogram::bucketIndex(uint64_t x)
{
    if (x == 0) {
        return 0;
    }
    // Same geometry as Log2Histogram: bucket i >= 1 holds
    // [2^(i-1), 2^i), so x lands in floor(log2(x)) + 1.
    return static_cast<unsigned>(64 - __builtin_clzll(x));
}

void
AtomicLog2Histogram::add(uint64_t x)
{
    unsigned i = bucketIndex(x);
    if (i >= kBuckets) {
        i = kBuckets - 1;
    }
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(x, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (x < cur &&
           !min_.compare_exchange_weak(cur, x,
                                       std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (x > cur &&
           !max_.compare_exchange_weak(cur, x,
                                       std::memory_order_relaxed)) {
    }
}

// ---------------------------------------------------------------------
// HistogramSnapshot

HistogramSnapshot::HistogramSnapshot()
    : count_(0), sum_(0), min_(std::numeric_limits<uint64_t>::max()),
      max_(0), hasMinMax_(false)
{
    std::fill(std::begin(buckets_), std::end(buckets_), 0);
}

HistogramSnapshot
HistogramSnapshot::of(const AtomicLog2Histogram &h)
{
    HistogramSnapshot s;
    // Relaxed loads: each field is individually coherent; a snapshot
    // taken concurrently with writers may be mid-update by one sample
    // (count vs. bucket off by one), which percentile interpolation
    // tolerates.
    for (unsigned i = 0; i < AtomicLog2Histogram::kBuckets; ++i) {
        s.buckets_[i] = h.buckets_[i].load(std::memory_order_relaxed);
    }
    s.count_ = h.count_.load(std::memory_order_relaxed);
    s.sum_ = h.sum_.load(std::memory_order_relaxed);
    s.min_ = h.min_.load(std::memory_order_relaxed);
    s.max_ = h.max_.load(std::memory_order_relaxed);
    s.hasMinMax_ = s.count_ > 0;
    return s;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    for (unsigned i = 0; i < AtomicLog2Histogram::kBuckets; ++i) {
        buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.hasMinMax_) {
        min_ = hasMinMax_ ? std::min(min_, other.min_) : other.min_;
        max_ = hasMinMax_ ? std::max(max_, other.max_) : other.max_;
        hasMinMax_ = true;
    }
}

HistogramSnapshot
HistogramSnapshot::deltaSince(const HistogramSnapshot &older) const
{
    HistogramSnapshot d;
    for (unsigned i = 0; i < AtomicLog2Histogram::kBuckets; ++i) {
        d.buckets_[i] =
            buckets_[i] >= older.buckets_[i]
                ? buckets_[i] - older.buckets_[i]
                : 0;
        d.count_ += d.buckets_[i];
    }
    d.sum_ = sum_ >= older.sum_ ? sum_ - older.sum_ : 0;
    d.hasMinMax_ = false; // window extremes are unknowable
    return d;
}

double
HistogramSnapshot::mean() const
{
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
}

namespace
{

double
bucketLo(unsigned i)
{
    return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double
bucketHi(unsigned i)
{
    return std::ldexp(1.0, static_cast<int>(i));
}

} // namespace

double
HistogramSnapshot::percentile(double q) const
{
    if (count_ == 0) {
        return 0.0;
    }
    q = std::min(1.0, std::max(0.0, q));
    double target = q * static_cast<double>(count_);
    uint64_t seen = 0;
    for (unsigned i = 0; i < AtomicLog2Histogram::kBuckets; ++i) {
        if (buckets_[i] == 0) {
            continue;
        }
        double before = static_cast<double>(seen);
        seen += buckets_[i];
        if (static_cast<double>(seen) >= target) {
            double frac =
                (target - before) / static_cast<double>(buckets_[i]);
            double v = bucketLo(i) + frac * (bucketHi(i) - bucketLo(i));
            if (hasMinMax_) {
                v = std::min(std::max(v, static_cast<double>(min_)),
                             static_cast<double>(max_));
            }
            return v;
        }
    }
    return hasMinMax_ ? static_cast<double>(max_)
                      : bucketHi(AtomicLog2Histogram::kBuckets - 1);
}

double
HistogramSnapshot::fractionAbove(double threshold) const
{
    if (count_ == 0) {
        return 0.0;
    }
    double above = 0;
    for (unsigned i = 0; i < AtomicLog2Histogram::kBuckets; ++i) {
        if (buckets_[i] == 0) {
            continue;
        }
        double lo = bucketLo(i), hi = bucketHi(i);
        if (threshold < lo) {
            above += static_cast<double>(buckets_[i]);
        } else if (threshold < hi) {
            // Samples spread uniformly inside the bucket.
            above += static_cast<double>(buckets_[i]) *
                     (hi - threshold) / (hi - lo);
        }
    }
    return above / static_cast<double>(count_);
}

// ---------------------------------------------------------------------
// SloMonitor

void
SloMonitor::setTarget(uint16_t tenant, const SloTarget &target)
{
    deuce_assert(target.p99Target > 0);
    deuce_assert(target.budgetFraction > 0);
    deuce_assert(target.burnClear <= target.burnAlert);
    states_[tenant].target = target;
}

bool
SloMonitor::hasTarget(uint16_t tenant) const
{
    return states_.count(tenant) != 0;
}

SloMonitor::Verdict
SloMonitor::observe(uint16_t tenant, const HistogramSnapshot &window)
{
    Verdict v;
    auto it = states_.find(tenant);
    if (it == states_.end()) {
        return v;
    }
    State &st = it->second;
    v.firing = st.firing;
    if (window.count() == 0) {
        // An empty window is no evidence either way.
        return v;
    }
    v.badFraction = window.fractionAbove(st.target.p99Target);
    v.burnRate = v.badFraction / st.target.budgetFraction;
    if (!st.firing && v.burnRate >= st.target.burnAlert) {
        st.firing = true;
        v.fired = true;
        ++fired_;
    } else if (st.firing && v.burnRate < st.target.burnClear) {
        st.firing = false;
        v.cleared = true;
        ++cleared_;
    }
    v.firing = st.firing;
    return v;
}

bool
SloMonitor::firing(uint16_t tenant) const
{
    auto it = states_.find(tenant);
    return it != states_.end() && it->second.firing;
}

// ---------------------------------------------------------------------
// Config

bool
telemetryConfigFromEnv(TelemetryConfig &config)
{
    const char *base = std::getenv("DEUCE_TELEMETRY");
    if (base == nullptr || *base == '\0') {
        return false;
    }
    config.promPath = std::string(base) + ".prom";
    config.jsonlPath = std::string(base) + ".jsonl";
    if (const char *p = std::getenv("DEUCE_TELEMETRY_PERIOD_MS")) {
        unsigned long long ms = std::strtoull(p, nullptr, 10);
        if (ms > 0) {
            config.periodMs = ms;
        }
    }
    return true;
}

std::string
prometheusName(const std::string &statName)
{
    std::string out = "deuce_";
    for (char c : statName) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9');
        out.push_back(ok ? c : '_');
    }
    return out;
}

// ---------------------------------------------------------------------
// TelemetrySampler

TelemetrySampler::TelemetrySampler(const StatRegistry &registry,
                                   TelemetryConfig config)
    : registry_(registry), config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now())
{
}

TelemetrySampler::~TelemetrySampler()
{
    stop();
}

uint64_t
TelemetrySampler::nowNs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
TelemetrySampler::addLatencySource(
    const std::string &name,
    std::vector<const AtomicLog2Histogram *> parts, uint16_t tenant)
{
    deuce_assert(!running_);
    LatencySource src;
    src.name = name;
    src.parts = std::move(parts);
    src.tenant = tenant;
    latencySources_.push_back(std::move(src));
}

void
TelemetrySampler::addQueueSource(const std::string &name,
                                 std::function<uint64_t()> depth,
                                 uint64_t capacity, double watermark)
{
    deuce_assert(!running_);
    QueueSource src;
    src.name = name;
    src.depth = std::move(depth);
    src.capacity = capacity;
    src.watermark = static_cast<uint64_t>(
        std::ceil(watermark * static_cast<double>(capacity)));
    if (src.watermark == 0) {
        src.watermark = 1;
    }
    queueSources_.push_back(std::move(src));
}

TelemetrySampler::Sample
TelemetrySampler::sampleOnce()
{
    Sample s;
    s.seq = samples_.fetch_add(1, std::memory_order_relaxed) + 1;
    s.tsNs = nowNs();
    s.dtNs = prevTsNs_ == 0 && s.seq == 1 ? 0 : s.tsNs - prevTsNs_;
    prevTsNs_ = s.tsNs;

    // Scalar stats: current value + delta since the previous tick.
    std::vector<const Stat *> stats = registry_.stats();
    prevValues_.resize(stats.size(), 0.0);
    size_t slot = 0;
    for (const Stat *stat : stats) {
        double v;
        bool monotone = false;
        if (auto *sc = dynamic_cast<const Scalar *>(stat)) {
            v = sc->value();
            monotone = sc->kind() == ValueKind::Int;
        } else if (auto *f = dynamic_cast<const Formula *>(stat)) {
            v = f->value();
        } else {
            continue; // histograms et al.: not live-safe, skipped
        }
        SampledValue sv;
        sv.name = stat->name();
        sv.value = v;
        sv.delta = s.seq == 1 ? v : v - prevValues_[slot];
        sv.monotone = monotone;
        prevValues_[slot] = v;
        ++slot;
        s.values.push_back(std::move(sv));
    }

    // Latency sources: merge shards, window = delta since last tick.
    for (LatencySource &src : latencySources_) {
        HistogramSnapshot merged;
        for (const AtomicLog2Histogram *h : src.parts) {
            merged.merge(HistogramSnapshot::of(*h));
        }
        HistogramSnapshot window = merged.deltaSince(src.prev);
        src.prev = merged;

        SampledLatency lat;
        lat.name = src.name;
        lat.tenant = src.tenant;
        lat.count = merged.count();
        lat.windowCount = window.count();
        lat.p50 = merged.percentile(0.50);
        lat.p99 = merged.percentile(0.99);
        lat.p999 = merged.percentile(0.999);
        if (src.tenant != kNoTenant && slo_.hasTarget(src.tenant)) {
            lat.verdict = slo_.observe(src.tenant, window);
            if (lat.verdict.fired) {
                char msg[160];
                std::snprintf(msg, sizeof(msg),
                              "slo alert firing: %s burn-rate %.2f "
                              "(bad %.4f of window)",
                              src.name.c_str(), lat.verdict.burnRate,
                              lat.verdict.badFraction);
                logEvent(FlightEventKind::Degrade, "slo", msg);
            } else if (lat.verdict.cleared) {
                logEvent(FlightEventKind::Mark, "slo",
                         "slo alert cleared: " + src.name);
            }
        }
        s.latencies.push_back(std::move(lat));
    }

    // Queue depths + watermark breaches.
    for (const QueueSource &src : queueSources_) {
        SampledQueue q;
        q.name = src.name;
        q.depth = src.depth();
        q.capacity = src.capacity;
        q.breached = q.depth >= src.watermark;
        if (q.breached) {
            breaches_.fetch_add(1, std::memory_order_relaxed);
            flightRecorderRecord(FlightEventKind::Stall, 0, 0, q.depth,
                                 q.capacity, "queue_watermark");
        }
        s.queues.push_back(std::move(q));
    }

    // Export.
    if (!config_.promPath.empty()) {
        writeFileAtomically(config_.promPath,
                            [&](std::ostream &os) { writeProm(os, s); });
    }
    if (!config_.jsonlPath.empty()) {
        std::ofstream os(config_.jsonlPath,
                         std::ios::out | std::ios::app);
        if (os) {
            writeJsonl(os, s);
        }
    }

    last_ = s;
    return s;
}

namespace
{

/** A finite double as a compact JSON/Prom number token. */
std::string
num(double v)
{
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[40];
    if (v == static_cast<double>(static_cast<int64_t>(v)) &&
        std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.6g", v);
    }
    return buf;
}

} // namespace

void
TelemetrySampler::writeProm(std::ostream &os,
                            const Sample &sample) const
{
    double dtSec = static_cast<double>(sample.dtNs) / 1e9;
    for (const SampledValue &v : sample.values) {
        std::string name = prometheusName(v.name);
        os << "# TYPE " << name
           << (v.monotone ? " counter\n" : " gauge\n");
        os << name << ' ' << num(v.value) << '\n';
        if (v.monotone && dtSec > 0) {
            std::string rate = name + "_rate";
            os << "# TYPE " << rate << " gauge\n";
            os << rate << ' ' << num(v.delta / dtSec) << '\n';
        }
    }
    for (const SampledLatency &l : sample.latencies) {
        std::string base = prometheusName(l.name);
        os << "# TYPE " << base << "_count counter\n";
        os << base << "_count " << l.count << '\n';
        struct { const char *suffix; double v; } qs[] = {
            {"_p50_us", l.p50 / 1e3},
            {"_p99_us", l.p99 / 1e3},
            {"_p999_us", l.p999 / 1e3},
        };
        for (const auto &q : qs) {
            os << "# TYPE " << base << q.suffix << " gauge\n";
            os << base << q.suffix << ' ' << num(q.v) << '\n';
        }
        if (l.tenant != kNoTenant) {
            os << "# TYPE " << base << "_slo_burn_rate gauge\n";
            os << base << "_slo_burn_rate "
               << num(l.verdict.burnRate) << '\n';
            os << "# TYPE " << base << "_slo_firing gauge\n";
            os << base << "_slo_firing " << (l.verdict.firing ? 1 : 0)
               << '\n';
        }
    }
    for (const SampledQueue &q : sample.queues) {
        std::string base = prometheusName(q.name);
        os << "# TYPE " << base << "_depth gauge\n";
        os << base << "_depth " << q.depth << '\n';
        os << "# TYPE " << base << "_capacity gauge\n";
        os << base << "_capacity " << q.capacity << '\n';
    }
    os << "# TYPE deuce_telemetry_samples counter\n";
    os << "deuce_telemetry_samples " << sample.seq << '\n';
}

void
TelemetrySampler::writeJsonl(std::ostream &os,
                             const Sample &sample) const
{
    os << "{\"seq\":" << sample.seq << ",\"ts_ms\":"
       << num(static_cast<double>(sample.tsNs) / 1e6) << ",\"dt_ms\":"
       << num(static_cast<double>(sample.dtNs) / 1e6);
    os << ",\"stats\":{";
    bool first = true;
    for (const SampledValue &v : sample.values) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << '"' << v.name << "\":{\"v\":" << num(v.value)
           << ",\"d\":" << num(v.delta) << '}';
    }
    os << "},\"latency\":{";
    first = true;
    for (const SampledLatency &l : sample.latencies) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << '"' << l.name << "\":{\"count\":" << l.count
           << ",\"window\":" << l.windowCount
           << ",\"p50_us\":" << num(l.p50 / 1e3)
           << ",\"p99_us\":" << num(l.p99 / 1e3)
           << ",\"p999_us\":" << num(l.p999 / 1e3);
        if (l.tenant != kNoTenant) {
            os << ",\"burn_rate\":" << num(l.verdict.burnRate)
               << ",\"firing\":"
               << (l.verdict.firing ? "true" : "false");
        }
        os << '}';
    }
    os << "},\"queues\":{";
    first = true;
    for (const SampledQueue &q : sample.queues) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << '"' << q.name << "\":{\"depth\":" << q.depth
           << ",\"capacity\":" << q.capacity << ",\"breached\":"
           << (q.breached ? "true" : "false") << '}';
    }
    os << "}}\n";
}

void
TelemetrySampler::start()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (running_) {
        return;
    }
    stopRequested_ = false;
    running_ = true;
    thread_ = std::thread([this] { threadLoop(); });
}

void
TelemetrySampler::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_) {
            return;
        }
        stopRequested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    {
        std::lock_guard<std::mutex> lk(mu_);
        running_ = false;
    }
    sampleOnce(); // final sample so short runs still export
}

void
TelemetrySampler::threadLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopRequested_) {
        cv_.wait_for(lk, std::chrono::milliseconds(config_.periodMs),
                     [this] { return stopRequested_; });
        if (stopRequested_) {
            break;
        }
        lk.unlock();
        sampleOnce();
        lk.lock();
    }
}

} // namespace obs
} // namespace deuce
