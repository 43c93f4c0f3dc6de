/**
 * @file
 * AES-NI hardware backend. This TU is the only one compiled with
 * -maes (the DEUCE_AESNI CMake option); it is linked in
 * unconditionally on capable toolchains but only dispatched to when
 * CPUID reports AES support (aes_backend.cc), so the binary still
 * runs on hosts without the extension.
 *
 * The one entry point, aesniEncrypt, reads the portable FIPS-197
 * schedule Aes128 expanded at construction and walks a run of blocks
 * eight at a time, then four, then one. AESENC has ~4-cycle latency
 * at 1-cycle throughput, so independent chains stepped through each
 * round together keep the unit busy: eight in flight on long runs,
 * four for a line's worth of pads.
 */

#include "crypto/aes.hh"

#include <wmmintrin.h>

namespace deuce
{

namespace
{

inline __m128i
loadKey(const std::array<uint8_t, 16> &rk)
{
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(rk.data()));
}

void
aesniEncrypt1(const Aes128 &aes, const uint8_t in[16], uint8_t out[16])
{
    const auto &rk = aes.roundKeys();
    __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in));
    s = _mm_xor_si128(s, loadKey(rk[0]));
    for (unsigned r = 1; r < Aes128::kRounds; ++r) {
        s = _mm_aesenc_si128(s, loadKey(rk[r]));
    }
    s = _mm_aesenclast_si128(s, loadKey(rk[Aes128::kRounds]));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), s);
}

void
aesniEncrypt4(const Aes128 &aes, const uint8_t in[64], uint8_t out[64])
{
    const auto &rk = aes.roundKeys();
    __m128i k = loadKey(rk[0]);
    __m128i s0 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in)), k);
    __m128i s1 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 16)),
        k);
    __m128i s2 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 32)),
        k);
    __m128i s3 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 48)),
        k);
    for (unsigned r = 1; r < Aes128::kRounds; ++r) {
        k = loadKey(rk[r]);
        s0 = _mm_aesenc_si128(s0, k);
        s1 = _mm_aesenc_si128(s1, k);
        s2 = _mm_aesenc_si128(s2, k);
        s3 = _mm_aesenc_si128(s3, k);
    }
    k = loadKey(rk[Aes128::kRounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                     _mm_aesenclast_si128(s0, k));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16),
                     _mm_aesenclast_si128(s1, k));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 32),
                     _mm_aesenclast_si128(s2, k));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 48),
                     _mm_aesenclast_si128(s3, k));
}

void
aesniEncrypt(const Aes128 &aes, const uint8_t *in, uint8_t *out,
             std::size_t nblocks)
{
    const auto &rk = aes.roundKeys();
    while (nblocks >= 8) {
        __m128i k = loadKey(rk[0]);
        __m128i s[8];
        for (unsigned b = 0; b < 8; ++b) {
            s[b] = _mm_xor_si128(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(in + 16 * b)),
                k);
        }
        for (unsigned r = 1; r < Aes128::kRounds; ++r) {
            k = loadKey(rk[r]);
            for (unsigned b = 0; b < 8; ++b) {
                s[b] = _mm_aesenc_si128(s[b], k);
            }
        }
        k = loadKey(rk[Aes128::kRounds]);
        for (unsigned b = 0; b < 8; ++b) {
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(out + 16 * b),
                _mm_aesenclast_si128(s[b], k));
        }
        in += 128;
        out += 128;
        nblocks -= 8;
    }
    while (nblocks >= 4) {
        aesniEncrypt4(aes, in, out);
        in += 64;
        out += 64;
        nblocks -= 4;
    }
    for (std::size_t i = 0; i < nblocks; ++i) {
        aesniEncrypt1(aes, in + 16 * i, out + 16 * i);
    }
}

constexpr AesBackendOps kAesniOps = {"aesni", aesniEncrypt};

} // namespace

const AesBackendOps *
aesniBackendOps()
{
    return &kAesniOps;
}

} // namespace deuce
