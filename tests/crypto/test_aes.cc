/**
 * @file
 * AES-128 validation against FIPS-197 / NIST encryption vectors on
 * every backend, batch/single equivalence at every batch tail, plus
 * structural properties (avalanche behaviour, key sensitivity).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "crypto/aes.hh"
#include "crypto/aes_backend.hh"

namespace deuce
{
namespace
{

AesBlock
blockFromHex(const char *hex)
{
    AesBlock b{};
    for (unsigned i = 0; i < 16; ++i) {
        auto nibble = [](char c) -> uint8_t {
            if (c >= '0' && c <= '9') return static_cast<uint8_t>(c - '0');
            return static_cast<uint8_t>(c - 'a' + 10);
        };
        b[i] = static_cast<uint8_t>((nibble(hex[2 * i]) << 4) |
                                    nibble(hex[2 * i + 1]));
    }
    return b;
}

/** FIPS-197 Appendix B: the canonical worked example. */
TEST(Aes128, Fips197AppendixB)
{
    Aes128 aes(blockFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    AesBlock pt = blockFromHex("3243f6a8885a308d313198a2e0370734");
    AesBlock expect = blockFromHex("3925841d02dc09fbdc118597196a0b32");
    EXPECT_EQ(aes.encrypt(pt), expect);
}

/** FIPS-197 Appendix C.1: sequential key and plaintext. */
TEST(Aes128, Fips197AppendixC1)
{
    Aes128 aes(blockFromHex("000102030405060708090a0b0c0d0e0f"));
    AesBlock pt = blockFromHex("00112233445566778899aabbccddeeff");
    AesBlock expect = blockFromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(aes.encrypt(pt), expect);
}

/** NIST SP 800-38A F.1.1 ECB-AES128 vectors (all four blocks). */
const char *const kSp80038aKey = "2b7e151628aed2a6abf7158809cf4f3c";
const char *const kSp80038aPlain[4] = {
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
};
const char *const kSp80038aCipher[4] = {
    "3ad77bb40d7a3660a89ecaf32466ef97",
    "f5d3d58503b9699de785895a96fdbaaf",
    "43b1cd7f598ece23881b00e3ed030688",
    "7b0c785e27e8ad3f8223207104725dd4",
};

TEST(Aes128, NistSp80038aEcbVectors)
{
    Aes128 aes(blockFromHex(kSp80038aKey));
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(aes.encrypt(blockFromHex(kSp80038aPlain[i])),
                  blockFromHex(kSp80038aCipher[i])) << "vector " << i;
    }
}

TEST(Aes128, AvalancheHalfTheBitsFlipOnOneBitChange)
{
    Rng rng(101);
    AesKey key{};
    Aes128 aes(key);
    double total = 0.0;
    const int trials = 200;
    for (int trial = 0; trial < trials; ++trial) {
        AesBlock pt;
        for (unsigned i = 0; i < 16; ++i) {
            pt[i] = static_cast<uint8_t>(rng.next());
        }
        AesBlock pt2 = pt;
        pt2[rng.nextBounded(16)] ^=
            static_cast<uint8_t>(1u << rng.nextBounded(8));

        AesBlock c1 = aes.encrypt(pt);
        AesBlock c2 = aes.encrypt(pt2);
        int diff = 0;
        for (unsigned i = 0; i < 16; ++i) {
            diff += __builtin_popcount(c1[i] ^ c2[i]);
        }
        total += diff;
    }
    // Mean flips across trials should be very close to 64 of 128.
    EXPECT_NEAR(total / trials, 64.0, 3.0);
}

TEST(Aes128, DifferentKeysGiveDifferentCiphertexts)
{
    AesBlock pt{};
    Aes128 a(blockFromHex("00000000000000000000000000000000"));
    Aes128 b(blockFromHex("00000000000000000000000000000001"));
    EXPECT_NE(a.encrypt(pt), b.encrypt(pt));
}

TEST(Aes128, EncryptIsDeterministic)
{
    AesKey key = blockFromHex("2b7e151628aed2a6abf7158809cf4f3c");
    Aes128 a(key), b(key);
    AesBlock pt = blockFromHex("6bc1bee22e409f96e93d7e117393172a");
    EXPECT_EQ(a.encrypt(pt), b.encrypt(pt));
}

/**
 * Every backend is the same cipher: the per-backend tests run the
 * FIPS-197 known answers and batch/single consistency against each
 * implementation, skipping AES-NI cleanly on hosts without it.
 */
class AesBackendTest : public ::testing::TestWithParam<AesBackendKind>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == AesBackendKind::AesNi && !aesniAvailable()) {
            GTEST_SKIP() << "AES-NI not compiled in or not reported "
                            "by CPUID on this host";
        }
        if (GetParam() == AesBackendKind::Vaes && !vaesAvailable()) {
            GTEST_SKIP() << "VAES/AVX-512 not compiled in or not "
                            "reported by CPUID on this host";
        }
        if (GetParam() == AesBackendKind::Neon &&
            !aesNeonAvailable()) {
            GTEST_SKIP() << "NEON crypto extensions not available "
                            "on this host";
        }
    }
};

TEST_P(AesBackendTest, Fips197AppendixB)
{
    Aes128 aes(blockFromHex("2b7e151628aed2a6abf7158809cf4f3c"),
               GetParam());
    AesBlock pt = blockFromHex("3243f6a8885a308d313198a2e0370734");
    AesBlock ct = blockFromHex("3925841d02dc09fbdc118597196a0b32");
    EXPECT_EQ(aes.encrypt(pt), ct);
}

TEST_P(AesBackendTest, Fips197AppendixC1)
{
    Aes128 aes(blockFromHex("000102030405060708090a0b0c0d0e0f"),
               GetParam());
    AesBlock pt = blockFromHex("00112233445566778899aabbccddeeff");
    AesBlock ct = blockFromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(aes.encrypt(pt), ct);
}

TEST_P(AesBackendTest, NistSp80038aEcbVectors)
{
    // One block at a time and as one four-block run.
    Aes128 aes(blockFromHex(kSp80038aKey), GetParam());
    AesBlock pts[4], cts[4];
    for (int i = 0; i < 4; ++i) {
        pts[i] = blockFromHex(kSp80038aPlain[i]);
        EXPECT_EQ(aes.encrypt(pts[i]), blockFromHex(kSp80038aCipher[i]))
            << "vector " << i;
    }
    aes.encryptBlocks(pts, cts, 4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(cts[i], blockFromHex(kSp80038aCipher[i]))
            << "vector " << i;
    }
}

TEST_P(AesBackendTest, ReportsItsOwnName)
{
    Aes128 aes(blockFromHex("000102030405060708090a0b0c0d0e0f"),
               GetParam());
    EXPECT_STREQ(aes.backendName(), aesBackendName(GetParam()));
    EXPECT_EQ(aes.backendKind(), GetParam());
}

TEST_P(AesBackendTest, EncryptBlocksMatchesSingleBlockCalls)
{
    Rng rng(2024);
    AesKey key;
    for (unsigned i = 0; i < 16; ++i) {
        key[i] = static_cast<uint8_t>(rng.next());
    }
    Aes128 aes(key, GetParam());
    Aes128 scalar(key, AesBackendKind::Scalar);
    // Every run length 0..40 against n scalar single-block calls:
    // covers each tail of every backend's one entry point (aesni's
    // 8/4/1, vaes's 16/4/1, neon's 4/1). A sentinel block past the
    // run checks that nothing beyond it is written.
    constexpr size_t kMax = 40;
    AesBlock in[kMax], batched[kMax + 1];
    for (AesBlock &b : in) {
        for (unsigned i = 0; i < 16; ++i) {
            b[i] = static_cast<uint8_t>(rng.next());
        }
    }
    const AesBlock sentinel = blockFromHex(
        "a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5");
    for (size_t n = 0; n <= kMax; ++n) {
        batched[n] = sentinel;
        aes.encryptBlocks(in, batched, n);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(batched[i], scalar.encrypt(in[i]))
                << "n " << n << " block " << i;
        }
        EXPECT_EQ(batched[n], sentinel) << "n " << n;
    }
    // In place, as the integrity hash runs it.
    AesBlock inplace[kMax];
    std::copy(in, in + kMax, inplace);
    aes.encryptBlocks(inplace, inplace, kMax);
    for (size_t i = 0; i < kMax; ++i) {
        EXPECT_EQ(inplace[i], scalar.encrypt(in[i])) << "block " << i;
    }
}

TEST_P(AesBackendTest, EncryptBlocksLongRunsMatchSingleBlockCalls)
{
    Rng rng(4096);
    AesKey key;
    for (unsigned i = 0; i < 16; ++i) {
        key[i] = static_cast<uint8_t>(rng.next());
    }
    Aes128 aes(key, GetParam());
    // 37 = 2x16 + 4 + 1: exercises a wide backend's main loop, its
    // 4-wide step, and its one-block tail in one run.
    constexpr size_t kN = 37;
    AesBlock in[kN], batched[kN];
    for (AesBlock &b : in) {
        for (unsigned i = 0; i < 16; ++i) {
            b[i] = static_cast<uint8_t>(rng.next());
        }
    }
    aes.encryptBlocks(in, batched, kN);
    for (size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(batched[i], aes.encrypt(in[i])) << "block " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, AesBackendTest,
    ::testing::Values(AesBackendKind::Scalar, AesBackendKind::AesNi,
                      AesBackendKind::Vaes, AesBackendKind::Neon),
    [](const ::testing::TestParamInfo<AesBackendKind> &info) {
        switch (info.param) {
          case AesBackendKind::Scalar: return "Scalar";
          case AesBackendKind::Vaes: return "Vaes";
          case AesBackendKind::Neon: return "Neon";
          default: return "AesNi";
        }
    });

TEST(AesBackends, BackendsBitIdenticalOnRandomKeysAndBlocks)
{
    Rng rng(7777);
    for (int trial = 0; trial < 100; ++trial) {
        AesKey key;
        AesBlock pt;
        for (unsigned i = 0; i < 16; ++i) {
            key[i] = static_cast<uint8_t>(rng.next());
            pt[i] = static_cast<uint8_t>(rng.next());
        }
        Aes128 scalar(key, AesBackendKind::Scalar);
        AesBlock ct = scalar.encrypt(pt);
        if (aesniAvailable()) {
            Aes128 aesni(key, AesBackendKind::AesNi);
            EXPECT_EQ(aesni.encrypt(pt), ct) << "trial " << trial;
        }
        if (vaesAvailable()) {
            Aes128 vaes(key, AesBackendKind::Vaes);
            EXPECT_EQ(vaes.encrypt(pt), ct) << "trial " << trial;
        }
        if (aesNeonAvailable()) {
            Aes128 neon(key, AesBackendKind::Neon);
            EXPECT_EQ(neon.encrypt(pt), ct) << "trial " << trial;
        }
    }
}

TEST(AesBackends, ParseNamesRoundTrip)
{
    EXPECT_EQ(parseAesBackendName("auto"), AesBackendKind::Auto);
    EXPECT_EQ(parseAesBackendName("scalar"), AesBackendKind::Scalar);
    EXPECT_EQ(parseAesBackendName("aesni"), AesBackendKind::AesNi);
    EXPECT_EQ(parseAesBackendName("vaes"), AesBackendKind::Vaes);
    EXPECT_EQ(parseAesBackendName("neon"), AesBackendKind::Neon);
    EXPECT_EQ(parseAesBackendName("AESNI"), std::nullopt);
    EXPECT_EQ(parseAesBackendName("bogus"), std::nullopt);
    EXPECT_EQ(parseAesBackendName(""), std::nullopt);
    EXPECT_EQ(parseAesBackendName("ttable"), std::nullopt);

    for (AesBackendKind k :
         {AesBackendKind::Auto, AesBackendKind::Scalar,
          AesBackendKind::AesNi, AesBackendKind::Vaes,
          AesBackendKind::Neon}) {
        EXPECT_EQ(parseAesBackendName(aesBackendName(k)), k);
    }
}

TEST(AesBackends, AutoResolvesToConcreteAvailableBackend)
{
    AesBackendKind resolved =
        resolveAesBackend(AesBackendKind::Auto);
    EXPECT_NE(resolved, AesBackendKind::Auto);
    if (resolved == AesBackendKind::AesNi) {
        EXPECT_TRUE(aesniAvailable());
    }
    if (resolved == AesBackendKind::Vaes) {
        EXPECT_TRUE(vaesAvailable());
    }
    if (resolved == AesBackendKind::Neon) {
        EXPECT_TRUE(aesNeonAvailable());
    }
    // An unavailable explicit request re-enters Auto instead of
    // failing.
    AesBackendKind ni = resolveAesBackend(AesBackendKind::AesNi);
    if (!aesniAvailable()) {
        EXPECT_EQ(ni, resolveAesBackend(AesBackendKind::Auto));
    } else {
        EXPECT_EQ(ni, AesBackendKind::AesNi);
    }
}

} // namespace
} // namespace deuce
