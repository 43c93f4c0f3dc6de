/**
 * @file
 * Fuzz test of SecureMemory's byte-granularity interface against a
 * flat shadow buffer: arbitrary overlapping, unaligned, line-crossing
 * reads and writes must behave exactly like plain memory.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "core/secure_memory.hh"

namespace deuce
{
namespace
{

class ByteInterfaceFuzz : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ByteInterfaceFuzz, MatchesFlatShadowBuffer)
{
    SecureMemoryConfig cfg;
    cfg.scheme = GetParam();
    cfg.wearLeveling.verticalEnabled = false;
    SecureMemory memory(cfg);

    const uint64_t space = 4096; // bytes under test (64 lines)
    std::vector<uint8_t> shadow(space, 0);
    Rng rng(2024);

    for (int step = 0; step < 400; ++step) {
        uint64_t addr = rng.nextBounded(space - 1);
        uint64_t max_len = space - addr;
        uint64_t len = 1 + rng.nextBounded(std::min<uint64_t>(
                               max_len, 200));

        if (rng.nextBool(0.6)) {
            std::vector<uint8_t> data(len);
            for (auto &b : data) {
                b = static_cast<uint8_t>(rng.next());
            }
            memory.writeBytes(addr, data.data(), len);
            std::copy(data.begin(), data.end(),
                      shadow.begin() + static_cast<long>(addr));
        } else {
            std::vector<uint8_t> out(len, 0xee);
            memory.readBytes(addr, out.data(), len);
            for (uint64_t i = 0; i < len; ++i) {
                ASSERT_EQ(out[i], shadow[addr + i])
                    << GetParam() << " step " << step << " addr "
                    << addr + i;
            }
        }
    }

    // Full final sweep.
    std::vector<uint8_t> all(space);
    memory.readBytes(0, all.data(), space);
    EXPECT_EQ(all, shadow);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ByteInterfaceFuzz,
    ::testing::Values("deuce", "dyndeuce", "encr-fnw", "ble-deuce"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace deuce
