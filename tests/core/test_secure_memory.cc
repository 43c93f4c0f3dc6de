/**
 * @file
 * Tests for the public SecureMemory facade.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/secure_memory.hh"

namespace deuce
{
namespace
{

SecureMemoryConfig
quickConfig(const std::string &scheme = "deuce")
{
    SecureMemoryConfig cfg;
    cfg.scheme = scheme;
    cfg.wearLeveling.verticalEnabled = false;
    return cfg;
}

TEST(SecureMemory, FreshMemoryReadsZero)
{
    SecureMemory mem(quickConfig());
    EXPECT_EQ(mem.readLine(0), CacheLine{});
    EXPECT_EQ(mem.readLine(1 << 20), CacheLine{});
}

TEST(SecureMemory, LineRoundTrip)
{
    SecureMemory mem(quickConfig());
    CacheLine data;
    data.setField(0, 64, 0xdeadbeefcafef00dull);
    data.setField(448, 64, 0x0123456789abcdefull);
    mem.writeLine(7, data);
    EXPECT_EQ(mem.readLine(7), data);
}

TEST(SecureMemory, ByteInterfaceRoundTrips)
{
    SecureMemory mem(quickConfig());
    const char *msg = "the quick brown fox jumps over the lazy dog";
    uint64_t addr = 100; // unaligned, mid-line
    mem.writeBytes(addr, reinterpret_cast<const uint8_t *>(msg),
                   std::strlen(msg) + 1);
    std::vector<uint8_t> out(std::strlen(msg) + 1);
    mem.readBytes(addr, out.data(), out.size());
    EXPECT_STREQ(reinterpret_cast<const char *>(out.data()), msg);
}

TEST(SecureMemory, ByteWritesSpanLines)
{
    SecureMemory mem(quickConfig());
    std::vector<uint8_t> buf(300);
    for (size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<uint8_t>(i * 7 + 1);
    }
    // Starts mid-line 0, covers lines 0..5.
    mem.writeBytes(40, buf.data(), buf.size());
    std::vector<uint8_t> out(buf.size());
    mem.readBytes(40, out.data(), out.size());
    EXPECT_EQ(out, buf);
    // Neighbouring bytes untouched (still zero).
    uint8_t before = 0xff, after = 0xff;
    mem.readBytes(39, &before, 1);
    mem.readBytes(40 + buf.size(), &after, 1);
    EXPECT_EQ(before, 0);
    EXPECT_EQ(after, 0);
}

TEST(SecureMemory, StatsReflectTraffic)
{
    SecureMemory mem(quickConfig());
    CacheLine data;
    data.setField(0, 16, 0xffff);
    mem.writeLine(0, data);
    mem.readLine(0);
    SecureMemoryStats stats = mem.stats();
    EXPECT_EQ(stats.lineWrites, 1u);
    EXPECT_EQ(stats.lineReads, 1u);
    EXPECT_GT(stats.avgFlipPct, 0.0);
    EXPECT_GE(stats.avgWriteSlots, 1.0);
    EXPECT_GT(stats.totalFlips, 0u);
    EXPECT_GT(stats.dynamicEnergyPj, 0.0);
    EXPECT_EQ(stats.trackingBitsPerLine, 32u);
}

TEST(SecureMemory, EverySchemeIdWorksThroughTheFacade)
{
    for (const char *scheme :
         {"nodcw", "nofnw", "encr", "encr-fnw", "ble", "ble-deuce",
          "deuce", "deuce-fnw", "dyndeuce"}) {
        SecureMemory mem(quickConfig(scheme));
        CacheLine data;
        data.setField(100, 32, 0xabcdef12u);
        mem.writeLine(3, data);
        data.setField(300, 16, 0x5555u);
        mem.writeLine(3, data);
        EXPECT_EQ(mem.readLine(3), data) << scheme;
    }
}

TEST(SecureMemory, DifferentKeysGiveDifferentCiphertext)
{
    SecureMemoryConfig a = quickConfig("encr");
    SecureMemoryConfig b = quickConfig("encr");
    b.keySeed = a.keySeed + 1;
    SecureMemory ma(a), mb(b);
    CacheLine data;
    data.setField(0, 64, 42);
    ma.writeLine(0, data);
    mb.writeLine(0, data);
    EXPECT_NE(ma.memory().storedState(0).data,
              mb.memory().storedState(0).data);
    EXPECT_EQ(ma.readLine(0), mb.readLine(0));
}

TEST(SecureMemory, UnknownSchemeIsFatal)
{
    SecureMemoryConfig cfg = quickConfig("rot13");
    EXPECT_THROW(SecureMemory{cfg}, FatalError);
}

TEST(SecureMemory, DeuceHalvesEncryptionFlipsOnSparseTraffic)
{
    // End-to-end sanity of the headline claim through the public API.
    auto run = [](const char *scheme) {
        SecureMemoryConfig cfg;
        cfg.scheme = scheme;
        cfg.wearLeveling.verticalEnabled = false;
        SecureMemory mem(cfg);
        CacheLine data;
        Rng rng(1);
        for (int i = 0; i < 500; ++i) {
            data.setField(2 * 16, 16, rng.next() | 1);
            data.setField(9 * 16, 16, rng.next() | 1);
            mem.writeLine(0, data);
        }
        return mem.stats().avgFlipPct;
    };
    double encr = run("encr");
    double deuce = run("deuce");
    EXPECT_NEAR(encr, 50.0, 2.0);
    EXPECT_LT(deuce, encr / 2.0);
}

TEST(SecureMemory, SecurityRefreshEngineWorksThroughTheFacade)
{
    SecureMemoryConfig cfg;
    cfg.scheme = "deuce";
    cfg.wearLeveling.verticalEnabled = true;
    cfg.wearLeveling.engine =
        WearLevelingConfig::Engine::SecurityRefresh;
    cfg.wearLeveling.numLines = 1 << 10; // power of two for SR
    cfg.wearLeveling.gapWriteInterval = 1;
    cfg.wearLeveling.rotation =
        WearLevelingConfig::Rotation::HwlHashed;

    SecureMemory mem(cfg);
    Rng rng(3);
    CacheLine data;
    for (int i = 0; i < 2000; ++i) {
        data.setField(0, 64, rng.next());
        mem.writeLine(rng.nextBounded(64), data);
    }
    // Functional: the last written value on a fresh line reads back.
    CacheLine probe;
    probe.setField(128, 64, 0xabc);
    mem.writeLine(9999, probe);
    EXPECT_EQ(mem.readLine(9999), probe);
    // The SR-driven hashed rotation spreads the hot field's wear.
    EXPECT_LT(mem.stats().wearNonUniformity, 6.0);
}

} // namespace
} // namespace deuce
