/**
 * @file
 * Tests for Block-Level Encryption and the BLE+DEUCE fusion.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/ble.hh"

namespace deuce
{
namespace
{

CacheLine
randomLine(Rng &rng)
{
    CacheLine line;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        line.limb(i) = rng.next();
    }
    return line;
}

/** Modify one byte inside the given 16-byte block. */
CacheLine
touchBlock(const CacheLine &base, unsigned block, Rng &rng)
{
    CacheLine out = base;
    unsigned byte = block * 16 + static_cast<unsigned>(rng.nextBounded(16));
    uint8_t delta = static_cast<uint8_t>(rng.next() | 1);
    out.setByte(byte, out.byte(byte) ^ delta);
    return out;
}

/**
 * One write() split at its pad plan: the planned read-back pads are
 * generated first, so the returned delta counts only what
 * writeWithPads() itself asks the engine for.
 */
OtpCounterSnapshot
writeOwnPads(const EncryptionScheme &scheme, const OtpEngine &otp,
             uint64_t addr, const CacheLine &plain, StoredLineState &state)
{
    LinePadRequest reqs[4 * kMaxWritePadLines];
    AesBlock blocks[4 * kMaxWritePadLines];
    CacheLine line_pads[kMaxWritePadLines];
    const unsigned lines = scheme.planWritePads(addr, state, reqs);
    scheme.generatePads(reqs, blocks, 4 * lines);
    assembleLinePads(blocks, line_pads, lines);
    const OtpCounterSnapshot before = otp.snapshotCounters();
    scheme.writeWithPads(addr, plain, state, line_pads);
    const OtpCounterSnapshot after = otp.snapshotCounters();
    return {after.pads - before.pads,
            after.padBatches - before.padBatches};
}

class BleTest : public ::testing::Test
{
  protected:
    BleTest() : otp_(makeAesOtpEngine(888)) {}
    std::unique_ptr<OtpEngine> otp_;
};

TEST_F(BleTest, InstallReadsBack)
{
    BlockLevelEncryption ble(*otp_);
    Rng rng(1);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    ble.install(10, plain, state);
    EXPECT_EQ(ble.read(10, state), plain);
    for (unsigned b = 0; b < 4; ++b) {
        EXPECT_EQ(state.blockCounters[b], 0u);
    }
}

TEST_F(BleTest, OnlyTouchedBlocksChange)
{
    BlockLevelEncryption ble(*otp_);
    Rng rng(2);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    ble.install(11, plain, state);

    CacheLine next = touchBlock(plain, 2, rng);
    WriteResult r = ble.write(11, next, state);
    EXPECT_EQ(ble.read(11, state), next);

    // Only block 2's counter advanced.
    EXPECT_EQ(state.blockCounters[0], 0u);
    EXPECT_EQ(state.blockCounters[1], 0u);
    EXPECT_EQ(state.blockCounters[2], 1u);
    EXPECT_EQ(state.blockCounters[3], 0u);

    // Flips confined to block 2 (bits 256..383); about half its bits.
    EXPECT_EQ(hammingDistance(r.dataDiff, CacheLine{}, 0, 256), 0u);
    EXPECT_EQ(hammingDistance(r.dataDiff, CacheLine{}, 384, 128), 0u);
    EXPECT_NEAR(hammingDistance(r.dataDiff, CacheLine{}, 256, 128),
                64u, 28u);
}

TEST_F(BleTest, SilentWritebackCostsNothing)
{
    BlockLevelEncryption ble(*otp_);
    Rng rng(3);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    ble.install(12, plain, state);
    WriteResult r = ble.write(12, plain, state);
    EXPECT_EQ(r.dataFlips, 0u);
    EXPECT_EQ(r.metaFlips, 0u);
}

TEST_F(BleTest, RoundTripsOverRandomTraffic)
{
    BlockLevelEncryption ble(*otp_);
    Rng rng(4);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    ble.install(13, plain, state);
    for (int step = 0; step < 100; ++step) {
        unsigned blocks = 1 + static_cast<unsigned>(rng.nextBounded(4));
        for (unsigned b = 0; b < blocks; ++b) {
            plain = touchBlock(
                plain, static_cast<unsigned>(rng.nextBounded(4)), rng);
        }
        ble.write(13, plain, state);
        ASSERT_EQ(ble.read(13, state), plain) << "step " << step;
    }
}

TEST_F(BleTest, SingleBlockTrafficCostsAQuarterOfCounterMode)
{
    BlockLevelEncryption ble(*otp_);
    Rng rng(5);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    ble.install(14, plain, state);
    double total = 0.0;
    const int writes = 200;
    for (int i = 0; i < writes; ++i) {
        plain = touchBlock(plain, 1, rng);
        total += ble.write(14, plain, state).dataFlips;
    }
    // One 128-bit block re-encrypted per write: ~64 flips = 12.5%.
    EXPECT_NEAR(total / writes, 64.0, 6.0);
}

TEST_F(BleTest, BleDeuceFusionRoundTrips)
{
    BlockLevelEncryption fused(*otp_, true, 2, 8);
    EXPECT_EQ(fused.trackingBitsPerLine(), 32u);
    Rng rng(6);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    fused.install(15, plain, state);
    ASSERT_EQ(fused.read(15, state), plain);
    for (int step = 0; step < 150; ++step) {
        unsigned blocks = 1 + static_cast<unsigned>(rng.nextBounded(3));
        for (unsigned b = 0; b < blocks; ++b) {
            plain = touchBlock(
                plain, static_cast<unsigned>(rng.nextBounded(4)), rng);
        }
        fused.write(15, plain, state);
        ASSERT_EQ(fused.read(15, state), plain) << "step " << step;
    }
}

TEST_F(BleTest, FusionRencryptsOnlyModifiedWordsMidEpoch)
{
    BlockLevelEncryption fused(*otp_, true, 2, 32);
    Rng rng(7);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    fused.install(16, plain, state);

    // Modify one byte in block 0 -> only one word of block 0 should
    // be re-encrypted (<= 16 bit flips), not the whole block.
    CacheLine next = plain;
    next.setByte(3, next.byte(3) ^ 0x5a);
    WriteResult r = fused.write(16, next, state);
    EXPECT_LE(r.dataFlips, 16u);
    EXPECT_EQ(fused.read(16, state), next);
    // The tracking bit for word 1 of block 0 is set.
    EXPECT_EQ(state.modifiedBits, uint64_t{1} << 1);
}

TEST_F(BleTest, FusionCheaperThanPlainBleOnSparseTraffic)
{
    BlockLevelEncryption plain_ble(*otp_);
    BlockLevelEncryption fused(*otp_, true, 2, 32);
    Rng rng(8);
    CacheLine data = randomLine(rng);
    StoredLineState s1, s2;
    plain_ble.install(17, data, s1);
    fused.install(17, data, s2);

    double ble_total = 0.0, fused_total = 0.0;
    for (int step = 0; step < 300; ++step) {
        // Stable footprint: the same field of block 0 churns. BLE
        // rewrites the whole 16-byte block; the fusion re-encrypts
        // only the one modified word.
        data.setByte(3, data.byte(3) ^
                            static_cast<uint8_t>(rng.next() | 1));
        ble_total += plain_ble.write(17, data, s1).totalFlips();
        fused_total += fused.write(17, data, s2).totalFlips();
    }
    // Figure 18: BLE+DEUCE < BLE.
    EXPECT_LT(fused_total, ble_total * 0.6);
}

TEST_F(BleTest, IdenticalRewriteGeneratesNoPads)
{
    // No block is dirty, so the write asks for no pad and charges no
    // batch, on the AES engine and on the base-class batch fallback.
    std::unique_ptr<OtpEngine> engines[] = {makeAesOtpEngine(888),
                                            makeFastOtpEngine(888)};
    for (const auto &otp : engines) {
        SCOPED_TRACE(otp->backendName());
        BlockLevelEncryption ble(*otp);
        Rng rng(9);
        CacheLine plain = randomLine(rng);
        StoredLineState state;
        ble.install(18, plain, state);
        plain = touchBlock(plain, 1, rng);
        ble.write(18, plain, state);
        EXPECT_EQ(writeOwnPads(ble, *otp, 18, plain, state),
                  OtpCounterSnapshot{});
        EXPECT_EQ(ble.read(18, state), plain);
    }
}

TEST_F(BleTest, FusedWriteGeneratesOnePadPerDirtyBlock)
{
    // A mid-epoch dirty block keeps its trailing counter, so its TCTR
    // pad comes from the read-back; only its fresh LCTR pad is
    // generated, all of them in one batch.
    BlockLevelEncryption fused(*otp_, true, 2, 32);
    Rng rng(10);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    fused.install(19, plain, state);
    for (int step = 0; step < 20; ++step) {
        const unsigned blocks =
            1 + static_cast<unsigned>(rng.nextBounded(4));
        for (unsigned b = 0; b < blocks; ++b) {
            plain = touchBlock(
                plain, static_cast<unsigned>(rng.nextBounded(4)), rng);
        }
        const StoredLineState before = state;
        const OtpCounterSnapshot used =
            writeOwnPads(fused, *otp_, 19, plain, state);
        uint64_t dirty = 0;
        for (unsigned b = 0; b < 4; ++b) {
            ASSERT_LT(state.blockCounters[b], 32u) << "not mid-epoch";
            dirty += state.blockCounters[b] - before.blockCounters[b];
        }
        EXPECT_EQ(used.pads, dirty) << "step " << step;
        EXPECT_EQ(used.padBatches, dirty > 0 ? 1u : 0u)
            << "step " << step;
        ASSERT_EQ(fused.read(19, state), plain) << "step " << step;
    }
}

TEST_F(BleTest, ConfigValidation)
{
    EXPECT_THROW(BlockLevelEncryption(*otp_, true, 3, 32), FatalError);
    EXPECT_THROW(BlockLevelEncryption(*otp_, true, 2, 3), FatalError);
}

} // namespace
} // namespace deuce
