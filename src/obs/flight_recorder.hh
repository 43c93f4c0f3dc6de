/**
 * @file
 * Flight recorder: the last N serving/simulation events of every
 * thread, dumped as Chrome-trace-compatible JSON for postmortems.
 *
 * The telemetry sampler (obs/telemetry.hh) answers "how fast is the
 * system right now"; the flight recorder answers "what exactly were
 * the shards doing when it went sideways". Every instrumented site —
 * request submit/complete, write commits, backpressure stalls,
 * recovery passes, line decommissions, backend degrades, crash
 * injection — appends one small record to a ring owned exclusively
 * by the emitting thread. The ring is the flight half of the
 * per-thread event log that span tracing (obs/trace.hh) also writes:
 * the same fixed-size record, the same tid per thread and the same
 * timestamp epoch, so a flight event dumped next to a span trace of
 * the same run falls on its thread's track inside its span. Unlike
 * spans (kept in full), rings are bounded: recording never allocates
 * after a thread's first event, the memory cost is fixed regardless
 * of run length, and old events are overwritten, keeping exactly the
 * last `capacity` events per thread.
 *
 * Cost model: a disabled site is one relaxed atomic load and a
 * predictable branch (the same contract as span tracing). An enabled
 * record is a handful of stores into thread-local memory — no locks
 * and no allocation once the thread's ring exists.
 *
 * Dumping: flightRecorderDump() walks every registered ring and
 * emits instant events ("ph":"i") in Chrome trace_event JSON, sorted
 * by timestamp — load the file in chrome://tracing or Perfetto,
 * alone or next to a span trace. Dump with recording threads
 * quiesced (after stop()/join); the crash-injection path is the
 * sanctioned exception, where a torn oldest-event on a concurrently
 * recording thread is acceptable in exchange for capturing the final
 * pre-crash events.
 *
 * Configuration:
 *   flightRecorderConfigure(path, cap)   programmatic
 *   flightRecorderConfigureFromEnv()     DEUCE_FLIGHT_RECORDER=path
 *                                        [DEUCE_FLIGHT_CAPACITY=n]
 * A configured path is written at process exit, on crash injection
 * (MemorySystem::crash), and via flightRecorderWriteFile(). The
 * configure call also installs the common-layer runtime-event sink,
 * so backend degrade warnings and queue stalls land in the rings.
 */

#ifndef DEUCE_OBS_FLIGHT_RECORDER_HH
#define DEUCE_OBS_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace deuce
{
namespace obs
{

/** What a flight-recorder event records. */
enum class FlightEventKind : uint8_t
{
    Submit,       ///< request entered a submission queue
    Complete,     ///< completion handed back to a client
    Write,        ///< one line written (a = addr, b = flips)
    WriteBatch,   ///< one batched burst committed (a = lines)
    Read,         ///< one line read (a = addr)
    Stall,        ///< backpressure (full CQ/SQ) made a thread wait
    Degrade,      ///< a requested backend fell back down the ladder
    Recovery,     ///< recovery pass (a = stale, b = repaired lines)
    Decommission, ///< a worn line was retired (a = addr)
    Crash,        ///< crash injection captured the durable image
    Gate,         ///< a bench hard gate failed
    Mark,         ///< free-form annotation (tests, benches)
};

/** Stable lowercase name of @p kind (the dump's event name). */
const char *flightEventKindName(FlightEventKind kind);

namespace detail
{

/** Recording armed? Relaxed load on every instrumented site. */
extern std::atomic<bool> g_flightEnabled;

/** Slow path of flightRecorderRecord (recording armed). */
void flightRecord(FlightEventKind kind, uint16_t shard,
                  uint16_t tenant, uint64_t a, uint64_t b,
                  const char *note);

} // namespace detail

/** Is recording armed? */
inline bool
flightRecorderEnabled()
{
    return detail::g_flightEnabled.load(std::memory_order_relaxed);
}

/**
 * Record one event into the calling thread's ring. @p note must be a
 * string with static storage duration (or one interned via
 * logEvent); the recorder stores the pointer, not a copy.
 */
inline void
flightRecorderRecord(FlightEventKind kind, uint16_t shard = 0,
                     uint16_t tenant = 0, uint64_t a = 0,
                     uint64_t b = 0, const char *note = nullptr)
{
    if (flightRecorderEnabled()) {
        detail::flightRecord(kind, shard, tenant, a, b, note);
    }
}

/**
 * Arm recording with per-thread rings of @p capacity events
 * (rounded up to a power of two, at least 8). Idempotent; the first
 * call fixes the capacity for the whole process.
 */
void flightRecorderEnable(std::size_t capacity = 4096);

/**
 * Arm recording and arrange for the rings to be dumped to @p path at
 * process exit (and on crash injection). Also installs the
 * common-layer runtime-event sink so degrade warnings and stalls are
 * recorded.
 */
void flightRecorderConfigure(const std::string &path,
                             std::size_t capacity = 4096);

/**
 * Configure from the environment: DEUCE_FLIGHT_RECORDER=<path>
 * arms recording to <path>; DEUCE_FLIGHT_CAPACITY=<n> overrides the
 * per-thread ring size. @return true when recording was armed.
 */
bool flightRecorderConfigureFromEnv();

/**
 * Log one event through the single obs-level helper: the message is
 * interned (safe for dynamic strings), recorded into the flight
 * ring, and — for Degrade/Gate/Crash kinds — echoed to stderr as
 * "deuce: <message>". The one helper every warning path routes
 * through, so a postmortem dump carries the warnings the run
 * printed.
 */
void logEvent(FlightEventKind kind, const char *category,
              const std::string &message, uint64_t a = 0,
              uint64_t b = 0);

/**
 * Dump every ring's surviving events as Chrome trace JSON, oldest
 * first. Safe while armed; see the file header for the quiesce
 * contract.
 */
void flightRecorderDump(std::ostream &os);

/**
 * Write the configured output file now (atomically: temp file +
 * rename). @return false when no path was configured or the file
 * could not be opened. Called automatically at exit and from crash
 * injection.
 */
bool flightRecorderWriteFile();

/** Events currently held across all rings (tests/sizing). */
uint64_t flightRecorderEventCount();

/** Events ever recorded (monotone; overwrites don't subtract). */
uint64_t flightRecorderTotalRecorded();

/** Drop all buffered events (rings stay registered). Tests only. */
void flightRecorderClear();

} // namespace obs
} // namespace deuce

#endif // DEUCE_OBS_FLIGHT_RECORDER_HH
