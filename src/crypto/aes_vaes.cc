/**
 * @file
 * VAES/AVX-512 hardware backend. This TU is the only one compiled
 * with -mvaes -mavx512f -mavx512bw -maes (the DEUCE_VAES CMake
 * option); it is linked unconditionally on capable toolchains but
 * only dispatched to when CPUID reports VAES + AVX-512 support
 * (aes_backend.cc), so the binary still runs on older x86 hosts.
 *
 * The 512-bit AESENC forms (_mm512_aesenc_epi128) run four
 * independent AES rounds per instruction; the one entry point,
 * vaesEncrypt, keeps four zmm registers — sixteen blocks — in flight
 * so the AES unit's ~4-cycle latency is fully hidden on cross-line
 * pad bursts, then finishes the run four and one at a time. Round
 * keys are broadcast lane-wise with _mm512_broadcast_i32x4, so every
 * 128-bit lane computes exactly the FIPS-197 cipher and results stay
 * bit-identical to the scalar reference.
 */

#include "crypto/aes.hh"

#include <immintrin.h>

namespace deuce
{

namespace
{

inline __m128i
loadKey128(const std::array<uint8_t, 16> &rk)
{
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(rk.data()));
}

inline __m512i
broadcastKey(const std::array<uint8_t, 16> &rk)
{
    return _mm512_broadcast_i32x4(loadKey128(rk));
}

void
vaesEncrypt1(const Aes128 &aes, const uint8_t in[16], uint8_t out[16])
{
    // Single blocks use the 128-bit AES-NI forms (this TU also
    // carries -maes): no zmm warm-up cost for a one-off pad.
    const auto &rk = aes.roundKeys();
    __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in));
    s = _mm_xor_si128(s, loadKey128(rk[0]));
    for (unsigned r = 1; r < Aes128::kRounds; ++r) {
        s = _mm_aesenc_si128(s, loadKey128(rk[r]));
    }
    s = _mm_aesenclast_si128(s, loadKey128(rk[Aes128::kRounds]));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), s);
}

/** Four blocks in one zmm: load, round ladder, store. */
void
vaesEncrypt4(const Aes128 &aes, const uint8_t in[64], uint8_t out[64])
{
    const auto &rk = aes.roundKeys();
    __m512i s = _mm512_loadu_si512(in);
    s = _mm512_xor_si512(s, broadcastKey(rk[0]));
    for (unsigned r = 1; r < Aes128::kRounds; ++r) {
        s = _mm512_aesenc_epi128(s, broadcastKey(rk[r]));
    }
    s = _mm512_aesenclast_epi128(s,
                                 broadcastKey(rk[Aes128::kRounds]));
    _mm512_storeu_si512(out, s);
}

void
vaesEncrypt(const Aes128 &aes, const uint8_t *in, uint8_t *out,
            std::size_t nblocks)
{
    const auto &rk = aes.roundKeys();
    // Sixteen blocks (4 zmm) per iteration keeps four independent
    // AESENC chains per port in flight.
    while (nblocks >= 16) {
        __m512i k = broadcastKey(rk[0]);
        __m512i s0 = _mm512_xor_si512(_mm512_loadu_si512(in), k);
        __m512i s1 =
            _mm512_xor_si512(_mm512_loadu_si512(in + 64), k);
        __m512i s2 =
            _mm512_xor_si512(_mm512_loadu_si512(in + 128), k);
        __m512i s3 =
            _mm512_xor_si512(_mm512_loadu_si512(in + 192), k);
        for (unsigned r = 1; r < Aes128::kRounds; ++r) {
            k = broadcastKey(rk[r]);
            s0 = _mm512_aesenc_epi128(s0, k);
            s1 = _mm512_aesenc_epi128(s1, k);
            s2 = _mm512_aesenc_epi128(s2, k);
            s3 = _mm512_aesenc_epi128(s3, k);
        }
        k = broadcastKey(rk[Aes128::kRounds]);
        _mm512_storeu_si512(out, _mm512_aesenclast_epi128(s0, k));
        _mm512_storeu_si512(out + 64,
                            _mm512_aesenclast_epi128(s1, k));
        _mm512_storeu_si512(out + 128,
                            _mm512_aesenclast_epi128(s2, k));
        _mm512_storeu_si512(out + 192,
                            _mm512_aesenclast_epi128(s3, k));
        in += 256;
        out += 256;
        nblocks -= 16;
    }
    while (nblocks >= 4) {
        vaesEncrypt4(aes, in, out);
        in += 64;
        out += 64;
        nblocks -= 4;
    }
    for (std::size_t i = 0; i < nblocks; ++i) {
        vaesEncrypt1(aes, in + 16 * i, out + 16 * i);
    }
}

constexpr AesBackendOps kVaesOps = {"vaes", vaesEncrypt};

} // namespace

const AesBackendOps *
vaesBackendOps()
{
    return &kVaesOps;
}

} // namespace deuce
