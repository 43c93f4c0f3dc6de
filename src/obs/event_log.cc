/**
 * @file
 * The per-thread event log behind both span tracing (obs/trace.hh)
 * and the flight recorder (obs/flight_recorder.hh).
 *
 * One leaked registry of per-thread logs gives every thread one tid
 * and stamps every record from one steady-clock epoch, so a span
 * trace and a flight dump of the same run line up track for track.
 * Both keep the same fixed-size record; they differ only in the keep
 * policy: spans are kept in full (the B/E export must balance),
 * flight events in a last-N ring. Span labels and logEvent messages
 * share one intern pool, one Chrome trace_event writer emits both
 * dumps, and the shared output helpers (obs/output.hh) live here too.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <mutex>
#include <ostream>
#include <unordered_set>
#include <vector>

#include "common/runtime_events.hh"
#include "obs/flight_recorder.hh"
#include "obs/output.hh"
#include "obs/trace.hh"

namespace deuce
{
namespace obs
{

namespace detail
{

std::atomic<int> g_traceLevel{0};
std::atomic<bool> g_flightEnabled{false};

} // namespace detail

namespace
{

/**
 * One span begin/end ('B'/'E') or flight instant ('i'). Both strings
 * are static or interned, so a record never owns memory.
 */
struct Record
{
    uint64_t tsNs = 0;
    const char *name = nullptr; ///< span name or flight kind name
    const char *note = nullptr; ///< span label / flight note, or null
    uint64_t a = 0;
    uint64_t b = 0;
    uint16_t shard = 0;
    uint16_t tenant = 0;
    char phase = 'i';
};

/** One thread's log; appended to only by its owning thread. */
struct ThreadLog
{
    uint32_t tid = 0;
    std::vector<Record> spans; ///< every B/E record, kept in full
    std::vector<Record> ring;  ///< last-N flight events (sized lazily)
    uint64_t head = 0;         ///< flight events ever recorded
};

/**
 * Process-wide state. Intentionally leaked (never destroyed) so the
 * atexit dumps and late-exiting threads can never race a destructor.
 */
struct Registry
{
    using Clock = std::chrono::steady_clock;

    std::mutex mu;
    std::deque<ThreadLog> logs; ///< stable addresses, never erased
    const Clock::time_point epoch = Clock::now();
    std::size_t flightCapacity = 0; ///< fixed by the first enable
    std::string traceOut;
    std::string flightOut;
    bool atexitArmed = false;
    /** Span labels and logEvent messages; never freed, so records
     *  can point at them forever. Node-based: c_str()s are stable. */
    std::unordered_set<std::string> interned;
};

Registry &
registry()
{
    static Registry *r = new Registry();
    return *r;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Registry::Clock::now() - registry().epoch)
            .count());
}

ThreadLog &
threadLog()
{
    thread_local ThreadLog *log = nullptr;
    if (log == nullptr) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lk(r.mu);
        log = &r.logs.emplace_back();
        log->tid = static_cast<uint32_t>(r.logs.size());
    }
    return *log;
}

/** A stable C string equal to @p s (nullptr for the empty string). */
const char *
intern(std::string s)
{
    if (s.empty()) {
        return nullptr;
    }
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    return r.interned.insert(std::move(s)).first->c_str();
}

/** Set the output path in @p field; arms the exit-time flush that
 *  writes both configured dumps. */
void
setOutPath(std::string Registry::*field, const std::string &path)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.*field = path;
    if (!r.atexitArmed) {
        r.atexitArmed = true;
        std::atexit([] {
            traceWriteFile();
            flightRecorderWriteFile();
        });
    }
}

/** The configured output path in @p field (empty: none). */
std::string
outPath(std::string Registry::*field)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    return r.*field;
}

/** Emit @p rec, recorded on thread @p tid, as one trace_event. */
void
writeEvent(std::ostream &os, const Record &rec, uint32_t tid)
{
    // Chrome expects microseconds; fixed-point keeps ns resolution at
    // any run length (default ostream formatting would switch long
    // runs to 6-digit scientific notation and scramble the ordering).
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.3f",
                  static_cast<double>(rec.tsNs) / 1000.0);
    bool instant = rec.phase == 'i';
    os << "{\"name\":\"" << jsonEscape(rec.name) << "\",\"cat\":\""
       << (instant ? "deuce.flight" : "deuce") << "\",\"ph\":\""
       << rec.phase << '"' << (instant ? ",\"s\":\"t\"" : "")
       << ",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts;
    if (instant) {
        os << ",\"args\":{\"shard\":" << rec.shard
           << ",\"tenant\":" << rec.tenant << ",\"a\":" << rec.a
           << ",\"b\":" << rec.b;
        if (rec.note != nullptr) {
            os << ",\"note\":\"" << jsonEscape(rec.note) << '"';
        }
        os << '}';
    } else if (rec.phase == 'B' && rec.note != nullptr) {
        os << ",\"args\":{\"label\":\"" << jsonEscape(rec.note)
           << "\"}";
    }
    os << '}';
}

/**
 * The Chrome trace_event envelope around whatever @p visit emits;
 * @p visit is called with an emit(record, tid) callback.
 */
template <class Visit>
void
writeChrome(std::ostream &os, Visit visit)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    visit([&](const Record &rec, uint32_t tid) {
        if (!first) {
            os << ",\n";
        }
        first = false;
        writeEvent(os, rec, tid);
    });
    os << "],\"displayTimeUnit\":\"ms\"}\n";
}

/**
 * Call @p f on every registered log, under the registry lock. Logs
 * are read without their owners' involvement, which is safe once the
 * emitting threads are quiesced (see the headers' dump contracts).
 */
template <class F>
void
forEachLog(F f)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (ThreadLog &log : r.logs) {
        f(log);
    }
}

/** The common-layer sink: lower libraries' warnings land here. */
void
runtimeEventSink(RuntimeEventKind kind, const char *category,
                 const std::string &message)
{
    if (!flightRecorderEnabled()) {
        return;
    }
    // The caller already echoed warnings to stderr; only intern and
    // record here (logEvent would double-print).
    FlightEventKind fk = kind == RuntimeEventKind::Stall
                             ? FlightEventKind::Stall
                             : FlightEventKind::Degrade;
    detail::flightRecord(fk, 0, 0, 0, 0,
                         intern(category + std::string(": ") + message));
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
writeFileAtomically(const std::string &path,
                    const std::function<void(std::ostream &)> &body)
{
    std::string tmp = path + ".tmp";
    std::ofstream os(tmp, std::ios::out | std::ios::trunc);
    if (!os) {
        return false;
    }
    body(os);
    os.close(); // flushes; a failed flush sets failbit
    if (!os) {
        std::remove(tmp.c_str());
        return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// ---------------------------------------------------------------------
// Span tracing (obs/trace.hh)

namespace detail
{

void
traceBegin(const char *name, std::string label)
{
    const char *note = intern(std::move(label));
    threadLog().spans.push_back(
        Record{.tsNs = nowNs(), .name = name, .note = note, .phase = 'B'});
}

void
traceEnd(const char *name)
{
    threadLog().spans.push_back(
        Record{.tsNs = nowNs(), .name = name, .phase = 'E'});
}

} // namespace detail

void
setTraceLevel(TraceLevel level)
{
    detail::g_traceLevel.store(static_cast<int>(level),
                               std::memory_order_relaxed);
}

TraceLevel
traceLevel()
{
    return static_cast<TraceLevel>(
        detail::g_traceLevel.load(std::memory_order_relaxed));
}

void
traceConfigure(const std::string &path, TraceLevel level)
{
    setOutPath(&Registry::traceOut, path);
    setTraceLevel(level);
}

bool
traceConfigureFromEnv()
{
    const char *path = std::getenv("DEUCE_TRACE");
    if (path == nullptr || *path == '\0') {
        return false;
    }
    const char *lvl = std::getenv("DEUCE_TRACE_LEVEL");
    bool verbose = lvl != nullptr && std::strcmp(lvl, "verbose") == 0;
    traceConfigure(path,
                   verbose ? TraceLevel::Verbose : TraceLevel::Phase);
    return true;
}

bool
traceWriteFile()
{
    std::string path = outPath(&Registry::traceOut);
    return !path.empty() && writeFileAtomically(path, writeChromeTrace);
}

void
writeChromeTrace(std::ostream &os)
{
    // Threads in registration order, each thread's records in
    // emission order, so B/E stay nested per tid.
    writeChrome(os, [](auto emit) {
        forEachLog([&](const ThreadLog &log) {
            for (const Record &rec : log.spans) {
                emit(rec, log.tid);
            }
        });
    });
}

uint64_t
traceEventCount()
{
    uint64_t n = 0;
    forEachLog([&](const ThreadLog &log) { n += log.spans.size(); });
    return n;
}

void
traceClear()
{
    forEachLog([](ThreadLog &log) { log.spans.clear(); });
}

// ---------------------------------------------------------------------
// Flight recorder (obs/flight_recorder.hh)

const char *
flightEventKindName(FlightEventKind kind)
{
    // Indexed by FlightEventKind, in declaration order.
    static constexpr const char *kNames[] = {
        "submit", "complete", "write",        "write_batch",
        "read",   "stall",    "degrade",      "recovery",
        "decommission",       "crash",        "gate_fail", "mark",
    };
    auto i = static_cast<std::size_t>(kind);
    return i < std::size(kNames) ? kNames[i] : "unknown";
}

namespace detail
{

void
flightRecord(FlightEventKind kind, uint16_t shard, uint16_t tenant,
             uint64_t a, uint64_t b, const char *note)
{
    ThreadLog &log = threadLog();
    if (log.ring.empty()) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lk(r.mu);
        log.ring.resize(r.flightCapacity);
    }
    log.ring[log.head & (log.ring.size() - 1)] =
        Record{nowNs(), flightEventKindName(kind), note, a, b, shard,
               tenant, 'i'};
    ++log.head;
}

} // namespace detail

void
flightRecorderEnable(std::size_t capacity)
{
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lk(r.mu);
        if (r.flightCapacity == 0) {
            r.flightCapacity = std::bit_ceil(
                std::max<std::size_t>(capacity, 8));
        }
    }
    setRuntimeEventSink(&runtimeEventSink);
    detail::g_flightEnabled.store(true, std::memory_order_release);
}

void
flightRecorderConfigure(const std::string &path, std::size_t capacity)
{
    setOutPath(&Registry::flightOut, path);
    flightRecorderEnable(capacity);
}

bool
flightRecorderConfigureFromEnv()
{
    const char *path = std::getenv("DEUCE_FLIGHT_RECORDER");
    if (path == nullptr || *path == '\0') {
        return false;
    }
    std::size_t capacity = 4096;
    if (const char *cap = std::getenv("DEUCE_FLIGHT_CAPACITY")) {
        unsigned long long parsed = std::strtoull(cap, nullptr, 10);
        if (parsed > 0) {
            capacity = static_cast<std::size_t>(parsed);
        }
    }
    flightRecorderConfigure(path, capacity);
    return true;
}

void
logEvent(FlightEventKind kind, const char *category,
         const std::string &message, uint64_t a, uint64_t b)
{
    if (kind == FlightEventKind::Degrade ||
        kind == FlightEventKind::Gate || kind == FlightEventKind::Crash) {
        std::fprintf(stderr, "deuce: %s\n", message.c_str());
    }
    if (flightRecorderEnabled()) {
        detail::flightRecord(kind, 0, 0, a, b,
                             intern(category + std::string(": ") +
                                    message));
    }
}

void
flightRecorderDump(std::ostream &os)
{
    /** A surviving event plus its owner's tid, for the global sort. */
    struct Entry
    {
        Record rec;
        uint32_t tid;
    };
    std::vector<Entry> entries;
    forEachLog([&](const ThreadLog &log) {
        uint64_t head = log.head;
        uint64_t cap = log.ring.size();
        for (uint64_t i = head - std::min(head, cap); i < head; ++i) {
            entries.push_back(Entry{log.ring[i & (cap - 1)], log.tid});
        }
    });
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &x, const Entry &y) {
                         return x.rec.tsNs < y.rec.tsNs;
                     });
    writeChrome(os, [&](auto emit) {
        for (const Entry &e : entries) {
            emit(e.rec, e.tid);
        }
    });
}

bool
flightRecorderWriteFile()
{
    std::string path = outPath(&Registry::flightOut);
    return !path.empty() &&
           writeFileAtomically(path, flightRecorderDump);
}

uint64_t
flightRecorderEventCount()
{
    uint64_t n = 0;
    forEachLog([&](const ThreadLog &log) {
        n += std::min<uint64_t>(log.head, log.ring.size());
    });
    return n;
}

uint64_t
flightRecorderTotalRecorded()
{
    uint64_t n = 0;
    forEachLog([&](const ThreadLog &log) { n += log.head; });
    return n;
}

void
flightRecorderClear()
{
    forEachLog([](ThreadLog &log) { log.head = 0; });
}

} // namespace obs
} // namespace deuce
