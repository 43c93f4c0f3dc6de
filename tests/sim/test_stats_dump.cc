/**
 * @file
 * Tests for the gem5-style stats dump.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/stats_dump.hh"

namespace deuce
{
namespace
{

TEST(StatsDump, MemorySystemCountersAppear)
{
    auto otp = std::make_unique<FastOtpEngine>(1);
    auto scheme = makeScheme("deuce", *otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    MemorySystem memory(*scheme, wl);

    Rng rng(1);
    CacheLine data;
    for (int i = 0; i < 10; ++i) {
        data.setField(0, 64, rng.next());
        memory.write(3, data);
    }
    memory.read(3);

    std::ostringstream os;
    dumpStats(os, memory, "test.pcm");
    std::string out = os.str();

    EXPECT_NE(out.find("test.pcm.writes"), std::string::npos);
    EXPECT_NE(out.find("test.pcm.reads"), std::string::npos);
    EXPECT_NE(out.find("test.pcm.bitFlips"), std::string::npos);
    EXPECT_NE(out.find("test.pcm.wear.nonUniformity"),
              std::string::npos);
    EXPECT_NE(out.find("10"), std::string::npos);

    // gem5 format: every line carries a '#'-prefixed description.
    std::istringstream is(out);
    std::string line;
    while (std::getline(is, line)) {
        EXPECT_NE(line.find(" # "), std::string::npos) << line;
    }
}

TEST(StatsDump, TimingResultCountersAppear)
{
    TimingResult result;
    result.executionNs = 1234.5;
    result.instructions = 999;
    result.reads = 7;
    result.writebacks = 3;
    result.counterCacheMisses = 2;
    result.counterCacheMissRate = 0.25;

    std::ostringstream os;
    dumpStats(os, result);
    std::string out = os.str();
    EXPECT_NE(out.find("system.timing.executionNs"), std::string::npos);
    EXPECT_NE(out.find("1234.5"), std::string::npos);
    EXPECT_NE(out.find("counterCache.missRate"), std::string::npos);
}

TEST(StatsDump, CounterCacheSectionOmittedWhenUnused)
{
    TimingResult result;
    std::ostringstream os;
    dumpStats(os, result);
    EXPECT_EQ(os.str().find("counterCache"), std::string::npos);
}

/**
 * Byte-for-byte golden captured from the hand-written formatter
 * BEFORE the registry migration (fixed seed, fixed write sequence).
 * The registry walk must reproduce it exactly — gem5-ecosystem
 * tooling greps these lines, so even whitespace is contract.
 */
constexpr const char *kGoldenDump =
    R"(system.pcm.writes                                         50  # line writebacks serviced
system.pcm.reads                                           2  # line reads serviced
system.pcm.bitFlips                                     3385  # total cell flips (data + metadata)
system.pcm.avgFlipPct                                13.2227  # mean bits modified per write (% of 512)
system.pcm.avgWriteSlots                                   1  # mean 128-bit write slots per write
system.pcm.dynamicEnergyPj                             57148  # dynamic memory energy (pJ)
system.pcm.wear.totalDataFlips                          3239  # data-cell flips recorded
system.pcm.wear.totalMetaFlips                            64  # metadata-cell flips recorded
system.pcm.wear.maxPositionFlips                          34  # flips at the hottest bit position
system.pcm.wear.nonUniformity                         5.3745  # hottest/mean position wear ratio
system.pcm.scheme.trackingBits                            32  # per-line tracking-bit overhead
system.timing.executionNs                             1234.5  # simulated execution time (ns)
system.timing.instructions                               999  # instructions retired (all cores)
system.timing.ips                                   0.809235  # aggregate instructions per ns
system.timing.avgReadLatencyNs                         56.25  # mean memory read latency (ns)
system.timing.avgWriteSlots                              1.5  # mean write slots per writeback
system.timing.reads                                        7  # reads serviced
system.timing.writebacks                                   3  # writebacks serviced
system.timing.counterCache.misses                          2  # counter-cache misses
system.timing.counterCache.missRate                     0.25  # counter-cache miss ratio
bare.timing.executionNs                                    0  # simulated execution time (ns)
bare.timing.instructions                                   0  # instructions retired (all cores)
bare.timing.ips                                            0  # aggregate instructions per ns
bare.timing.avgReadLatencyNs                               0  # mean memory read latency (ns)
bare.timing.avgWriteSlots                                  0  # mean write slots per writeback
bare.timing.reads                                          0  # reads serviced
bare.timing.writebacks                                     0  # writebacks serviced
)";

TEST(StatsDump, ByteIdenticalToPreMigrationGolden)
{
    FastOtpEngine otp(1);
    auto scheme = makeScheme("deuce", otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    MemorySystem memory(*scheme, wl);

    Rng rng(1);
    CacheLine data;
    for (int i = 0; i < 50; ++i) {
        data.setField(0, 64, rng.next());
        data.setField(64, 64, rng.next());
        memory.write(static_cast<uint64_t>(i % 8), data);
    }
    memory.read(3);
    memory.read(5);

    std::ostringstream os;
    dumpStats(os, memory, "system.pcm");

    TimingResult t;
    t.executionNs = 1234.5;
    t.instructions = 999;
    t.avgReadLatencyNs = 56.25;
    t.avgWriteSlots = 1.5;
    t.reads = 7;
    t.writebacks = 3;
    t.counterCacheMisses = 2;
    t.counterCacheMissRate = 0.25;
    dumpStats(os, t);

    TimingResult t0;
    dumpStats(os, t0, "bare.timing");

    EXPECT_EQ(os.str(), kGoldenDump);
}

TEST(StatsDump, JsonDumpNestsAndAddsDetail)
{
    FastOtpEngine otp(1);
    auto scheme = makeScheme("deuce", otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    MemorySystem memory(*scheme, wl);

    Rng rng(1);
    CacheLine data;
    for (int i = 0; i < 20; ++i) {
        data.setField(0, 64, rng.next());
        memory.write(static_cast<uint64_t>(i % 4), data);
    }

    std::ostringstream os;
    dumpStatsJson(os, memory, "system.pcm");
    std::string json = os.str();

    // Nested object mirroring the dots, plus the JSON-only detail
    // section (histograms, per-bank counters).
    EXPECT_EQ(json.find("{\"system\":{\"pcm\":{"), 0u);
    EXPECT_NE(json.find("\"writes\":20"), std::string::npos);
    EXPECT_NE(json.find("\"writeSlotsHist\":{"), std::string::npos);
    EXPECT_NE(json.find("\"bitFlipsHist\":{"), std::string::npos);
    EXPECT_NE(json.find("\"bank0\":{"), std::string::npos);
    EXPECT_NE(json.find("\"bank31\":{"), std::string::npos);
    // Writes hit banks 0..3 only; bank0 saw 5 of the 20.
    EXPECT_NE(json.find("\"bank0\":{\"writes\":5"), std::string::npos);
    EXPECT_NE(json.find("\"bank31\":{\"writes\":0"),
              std::string::npos);
    // The scheme's engine reports its pads; padBatches stays out.
    EXPECT_GT(otp.padsGenerated(), 0u);
    EXPECT_NE(json.find("\"otp\":{\"pads\":" +
                        std::to_string(otp.padsGenerated()) + "}"),
              std::string::npos);
    EXPECT_EQ(json.find("padBatches"), std::string::npos);
}

} // namespace
} // namespace deuce
