/**
 * @file
 * Unit tests for the span tracer and its Chrome trace export,
 * including the tid and clock it shares with the flight recorder.
 *
 * The trace buffers are process-global; every test starts from
 * traceClear() + an explicit level so order does not matter.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hh"
#include "obs/trace.hh"

namespace deuce
{
namespace obs
{
namespace
{

/** Occurrences of @p needle in @p hay. */
size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

/** The lines of a Chrome dump (one event per line) holding @p needle. */
std::vector<std::string>
linesWith(const std::string &dump, const std::string &needle)
{
    std::vector<std::string> out;
    std::istringstream in(dump);
    for (std::string line; std::getline(in, line);) {
        if (line.find(needle) != std::string::npos) {
            out.push_back(line);
        }
    }
    return out;
}

/** The number after "key": in one event line. */
double
field(const std::string &line, const std::string &key)
{
    size_t at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
    return at == std::string::npos
               ? -1.0
               : std::strtod(line.c_str() + at + key.size() + 3,
                             nullptr);
}

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setTraceLevel(TraceLevel::Off);
        traceClear();
    }

    void
    TearDown() override
    {
        setTraceLevel(TraceLevel::Off);
        traceClear();
    }
};

TEST_F(TraceTest, DisabledSitesRecordNothing)
{
    {
        DEUCE_TRACE_SCOPE("quiet.scope");
        DEUCE_TRACE_SCOPE_HOT("quiet.hot");
    }
    EXPECT_EQ(traceEventCount(), 0u);
}

TEST_F(TraceTest, PhaseLevelRecordsPhaseNotVerbose)
{
    setTraceLevel(TraceLevel::Phase);
    {
        DEUCE_TRACE_SCOPE("p.scope");
        DEUCE_TRACE_SCOPE_HOT("p.hot");
    }
    // One begin + one end for the phase span only.
    EXPECT_EQ(traceEventCount(), 2u);
}

TEST_F(TraceTest, VerboseLevelRecordsBoth)
{
    setTraceLevel(TraceLevel::Verbose);
    {
        DEUCE_TRACE_SCOPE("v.scope");
        DEUCE_TRACE_SCOPE_HOT("v.hot");
    }
    EXPECT_EQ(traceEventCount(), 4u);
}

TEST_F(TraceTest, SpanStaysBalancedAcrossLevelChange)
{
    setTraceLevel(TraceLevel::Phase);
    {
        DEUCE_TRACE_SCOPE("balance.scope");
        // Disabling mid-span must not orphan the begin event: the
        // scope was armed at construction and still emits its end.
        setTraceLevel(TraceLevel::Off);
    }
    EXPECT_EQ(traceEventCount(), 2u);
}

TEST_F(TraceTest, ChromeExportPairsBeginEnd)
{
    setTraceLevel(TraceLevel::Phase);
    {
        DEUCE_TRACE_SCOPE("outer");
        DEUCE_TRACE_SCOPE_L("inner", std::string("cell-3"));
    }
    setTraceLevel(TraceLevel::Off);

    std::ostringstream os;
    writeChromeTrace(os);
    std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), 2u);
    EXPECT_EQ(countOf(json, "\"ph\":\"E\""), 2u);
    EXPECT_EQ(countOf(json, "\"name\":\"outer\""), 2u);
    EXPECT_EQ(countOf(json, "\"name\":\"inner\""), 2u);
    // The dynamic label rides on the begin event's args.
    EXPECT_NE(json.find("\"label\":\"cell-3\""), std::string::npos);
}

TEST_F(TraceTest, EventsFromWorkerThreadsCarryDistinctTids)
{
    setTraceLevel(TraceLevel::Phase);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([] { DEUCE_TRACE_SCOPE("worker.span"); });
    }
    for (auto &t : threads) {
        t.join();
    }
    setTraceLevel(TraceLevel::Off);

    EXPECT_EQ(traceEventCount(), 6u);
    std::ostringstream os;
    writeChromeTrace(os);
    std::string json = os.str();
    // Three distinct worker buffers contribute; every B has its E.
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), 3u);
    EXPECT_EQ(countOf(json, "\"ph\":\"E\""), 3u);
}

TEST_F(TraceTest, DisabledSiteLeavesLabelUnevaluated)
{
    setTraceLevel(TraceLevel::Off);
    int evaluations = 0;
    auto label = [&evaluations] {
        ++evaluations;
        return std::string("expensive");
    };
    {
        DEUCE_TRACE_SCOPE_L("lazy.scope", label());
    }
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(traceEventCount(), 0u);
}

TEST_F(TraceTest, FlightEventSharesItsSpansTidAndClock)
{
    // The main thread records a span first, so it takes the first tid
    // without ever recording a flight event.
    setTraceLevel(TraceLevel::Phase);
    {
        DEUCE_TRACE_SCOPE("main.first");
    }
    // Arm the recorder well after that span: a clock epoch of its own
    // would put the worker's flight event before the worker's span.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    flightRecorderEnable();
    flightRecorderClear();

    std::thread worker([] {
        DEUCE_TRACE_SCOPE("worker.probe");
        flightRecorderRecord(FlightEventKind::Mark, 0, 0, /*a=*/424242);
    });
    worker.join();
    setTraceLevel(TraceLevel::Off);

    std::ostringstream spans, flight;
    writeChromeTrace(spans);
    flightRecorderDump(flight);
    std::vector<std::string> span =
        linesWith(spans.str(), "\"name\":\"worker.probe\"");
    std::vector<std::string> instant =
        linesWith(flight.str(), "\"a\":424242");
    ASSERT_EQ(span.size(), 2u);
    ASSERT_EQ(instant.size(), 1u);
    ASSERT_NE(span[0].find("\"ph\":\"B\""), std::string::npos);
    ASSERT_NE(span[1].find("\"ph\":\"E\""), std::string::npos);

    EXPECT_EQ(field(instant[0], "tid"), field(span[0], "tid"))
        << "the worker must sit on one track in both dumps";
    EXPECT_LE(field(span[0], "ts"), field(instant[0], "ts"));
    EXPECT_LE(field(instant[0], "ts"), field(span[1], "ts"));
}

} // namespace
} // namespace obs
} // namespace deuce
