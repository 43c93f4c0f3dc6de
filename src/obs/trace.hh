/**
 * @file
 * Span tracing: begin/end events in the per-thread event log shared
 * with the flight recorder (obs/flight_recorder.hh), exported as
 * Chrome trace_event JSON (load the file in chrome://tracing or
 * https://ui.perfetto.dev). Both use one tid per thread and one
 * timestamp epoch, so a flight dump lines up with a span trace.
 *
 * Usage:
 *   DEUCE_TRACE_SCOPE("sweep.cell");             // RAII span
 *   DEUCE_TRACE_SCOPE_L("sweep.cell", label);    // + dynamic label
 *   DEUCE_TRACE_SCOPE_HOT("aes.padForBlocks");   // verbose-level span
 *
 * Cost model: tracing is always compiled in; a disabled site costs
 * one relaxed atomic load and one predictable branch. An enabled
 * span appends two fixed-size records to a log owned exclusively by
 * the emitting thread; spans are kept in full (never overwritten) so
 * every begin keeps its end. A dynamic label is interned once into a
 * pool shared with logEvent messages, so records never own strings.
 * The global log list is only locked when a thread emits its first
 * event, when a label is interned, and at export.
 *
 * Levels: Phase covers per-cell and per-phase spans (cheap enough
 * for full sweeps); Verbose adds hot-path spans (per-write, per-AES-
 * batch) for small diagnostic runs.
 *
 * Configuration:
 *   traceConfigure(path, level)      programmatic (--trace-out)
 *   traceConfigureFromEnv()          DEUCE_TRACE=out.json
 *                                    [DEUCE_TRACE_LEVEL=verbose]
 * A configured output path is flushed automatically at process exit;
 * traceWriteFile() flushes it earlier.
 */

#ifndef DEUCE_OBS_TRACE_HH
#define DEUCE_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace deuce
{
namespace obs
{

/** Tracing verbosity; sites declare the level they belong to. */
enum class TraceLevel : int
{
    Off = 0,
    Phase = 1,   ///< sweep cells, experiment phases
    Verbose = 2, ///< + hot-path spans (per write / AES batch)
};

namespace detail
{

/** Current level; relaxed loads on the hot path. */
extern std::atomic<int> g_traceLevel;

/** Append a begin event to the calling thread's buffer. */
void traceBegin(const char *name, std::string label);

/** Append the matching end event. */
void traceEnd(const char *name);

} // namespace detail

/** Is tracing active at (at least) @p level? */
inline bool
traceEnabled(TraceLevel level = TraceLevel::Phase)
{
    return detail::g_traceLevel.load(std::memory_order_relaxed) >=
           static_cast<int>(level);
}

/** Set the runtime trace level (Off disables all sites). */
void setTraceLevel(TraceLevel level);

TraceLevel traceLevel();

/**
 * Enable tracing at @p level and arrange for the buffered events to
 * be written to @p path as Chrome trace JSON at process exit (or
 * earlier via traceWriteFile()).
 */
void traceConfigure(const std::string &path,
                    TraceLevel level = TraceLevel::Phase);

/**
 * Configure from the environment: DEUCE_TRACE=<path> enables Phase
 * tracing to <path>; DEUCE_TRACE_LEVEL=verbose raises the level.
 * @return true when tracing was enabled
 */
bool traceConfigureFromEnv();

/**
 * Write the configured output file now (atomically: temp file +
 * rename); the exit-time flush rewrites it with any later events.
 * @return false when no path was configured or the write failed.
 */
bool traceWriteFile();

/**
 * Export every buffered event as Chrome trace_event JSON. Call with
 * span-emitting threads quiesced (e.g. after runSweep returned).
 */
void writeChromeTrace(std::ostream &os);

/** Total buffered events across all threads (tests/sizing). */
uint64_t traceEventCount();

/** Drop all buffered events (buffers stay registered). Tests only. */
void traceClear();

/**
 * RAII span. Arms itself only when tracing is active at @p level at
 * construction; the destructor then emits the matching end event, so
 * begin/end pairs are balanced even if the level changes mid-span.
 */
class TraceScope
{
  public:
    explicit TraceScope(const char *name,
                        TraceLevel level = TraceLevel::Phase)
        : name_(name), armed_(traceEnabled(level))
    {
        if (armed_) {
            detail::traceBegin(name_, std::string());
        }
    }

    TraceScope(const char *name, std::string label,
               TraceLevel level = TraceLevel::Phase)
        : name_(name), armed_(traceEnabled(level))
    {
        if (armed_) {
            detail::traceBegin(name_, std::move(label));
        }
    }

    ~TraceScope()
    {
        if (armed_) {
            detail::traceEnd(name_);
        }
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    bool armed() const { return armed_; }

  private:
    const char *name_;
    bool armed_;
};

} // namespace obs
} // namespace deuce

#define DEUCE_OBS_CONCAT2(a, b) a##b
#define DEUCE_OBS_CONCAT(a, b) DEUCE_OBS_CONCAT2(a, b)

/** Phase-level span covering the enclosing scope. */
#define DEUCE_TRACE_SCOPE(name)                                       \
    ::deuce::obs::TraceScope DEUCE_OBS_CONCAT(deuce_trace_scope_,     \
                                              __COUNTER__)(name)

/**
 * Phase-level span with a dynamic label; the label expression is
 * evaluated only when tracing is active.
 */
#define DEUCE_TRACE_SCOPE_L(name, label)                              \
    ::deuce::obs::TraceScope DEUCE_OBS_CONCAT(deuce_trace_scope_,     \
                                              __COUNTER__)(           \
        name, ::deuce::obs::traceEnabled() ? (label) : std::string())

/** Verbose-level span for hot paths (per write, per AES batch). */
#define DEUCE_TRACE_SCOPE_HOT(name)                                   \
    ::deuce::obs::TraceScope DEUCE_OBS_CONCAT(deuce_trace_scope_,     \
                                              __COUNTER__)(           \
        name, ::deuce::obs::TraceLevel::Verbose)

#endif // DEUCE_OBS_TRACE_HH
