/**
 * @file
 * ARMv8 NEON crypto-extension backend. This TU is the only one
 * compiled with -march=armv8-a+crypto (the DEUCE_NEON CMake option);
 * on non-ARM hosts the option AUTO-resolves to the stub TU instead.
 *
 * ARM's AES instructions split the round differently from x86:
 * AESE(s, k) = ShiftRows(SubBytes(s ^ k)) and AESMC applies
 * MixColumns separately, so the round key is XORed *before* the
 * S-box layer and the final AddRoundKey becomes a plain EOR — the
 * same FIPS-197 cipher, so results stay bit-identical to the scalar
 * reference. The one entry point, neonEncrypt, walks a run of
 * blocks four at a time, then one.
 */

#include "crypto/aes.hh"

#include <arm_neon.h>

namespace deuce
{

namespace
{

inline uint8x16_t
loadKey(const std::array<uint8_t, 16> &rk)
{
    return vld1q_u8(rk.data());
}

inline uint8x16_t
neonEncryptBlock(const Aes128 &aes, uint8x16_t s)
{
    const auto &rk = aes.roundKeys();
    for (unsigned r = 0; r + 1 < Aes128::kRounds; ++r) {
        s = vaesmcq_u8(vaeseq_u8(s, loadKey(rk[r])));
    }
    s = vaeseq_u8(s, loadKey(rk[Aes128::kRounds - 1]));
    return veorq_u8(s, loadKey(rk[Aes128::kRounds]));
}

void
neonEncrypt1(const Aes128 &aes, const uint8_t in[16], uint8_t out[16])
{
    vst1q_u8(out, neonEncryptBlock(aes, vld1q_u8(in)));
}

void
neonEncrypt4(const Aes128 &aes, const uint8_t in[64], uint8_t out[64])
{
    // Four independent chains stepped together: the AESE/AESMC pair
    // fuses on ARM cores, and interleaving hides its latency.
    const auto &rk = aes.roundKeys();
    uint8x16_t s0 = vld1q_u8(in);
    uint8x16_t s1 = vld1q_u8(in + 16);
    uint8x16_t s2 = vld1q_u8(in + 32);
    uint8x16_t s3 = vld1q_u8(in + 48);
    for (unsigned r = 0; r + 1 < Aes128::kRounds; ++r) {
        uint8x16_t k = loadKey(rk[r]);
        s0 = vaesmcq_u8(vaeseq_u8(s0, k));
        s1 = vaesmcq_u8(vaeseq_u8(s1, k));
        s2 = vaesmcq_u8(vaeseq_u8(s2, k));
        s3 = vaesmcq_u8(vaeseq_u8(s3, k));
    }
    uint8x16_t k9 = loadKey(rk[Aes128::kRounds - 1]);
    uint8x16_t k10 = loadKey(rk[Aes128::kRounds]);
    vst1q_u8(out, veorq_u8(vaeseq_u8(s0, k9), k10));
    vst1q_u8(out + 16, veorq_u8(vaeseq_u8(s1, k9), k10));
    vst1q_u8(out + 32, veorq_u8(vaeseq_u8(s2, k9), k10));
    vst1q_u8(out + 48, veorq_u8(vaeseq_u8(s3, k9), k10));
}

void
neonEncrypt(const Aes128 &aes, const uint8_t *in, uint8_t *out,
            std::size_t nblocks)
{
    while (nblocks >= 4) {
        neonEncrypt4(aes, in, out);
        in += 64;
        out += 64;
        nblocks -= 4;
    }
    for (std::size_t i = 0; i < nblocks; ++i) {
        neonEncrypt1(aes, in + 16 * i, out + 16 * i);
    }
}

constexpr AesBackendOps kNeonOps = {"neon", neonEncrypt};

} // namespace

const AesBackendOps *
aesNeonBackendOps()
{
    return &kNeonOps;
}

} // namespace deuce
