/**
 * @file
 * NEON line-kernel backend (ARMv8). Selected by the DEUCE_NEON CMake
 * option; the flag probe fails on non-ARM toolchains, so this TU is
 * normally only built for aarch64 targets — it still self-guards
 * and compiles to a null stub elsewhere.
 *
 * The vector wins are the byte-popcount kernels (CNT + pairwise
 * widening adds); sub-byte region work delegates to the scalar
 * reference. The cross-line
 * accumulateFlipsBatch routes through the shared carry-save plane
 * core. All results are bit-identical to the scalar backend.
 */

#include "common/line_kernels.hh"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace deuce
{

namespace
{

/** Sum of byte popcounts over one 16-byte chunk. */
inline uint16x8_t
chunkPopcount(uint8x16_t v)
{
    return vpaddlq_u8(vcntq_u8(v));
}

inline uint8x16_t
loadChunk(const CacheLine &a, unsigned chunk)
{
    return vld1q_u8(
        reinterpret_cast<const uint8_t *>(a.limbs().data()) +
        16 * chunk);
}

unsigned
neonPopcount(const CacheLine &a)
{
    uint16x8_t sum = chunkPopcount(loadChunk(a, 0));
    for (unsigned c = 1; c < 4; ++c) {
        sum = vaddq_u16(sum, chunkPopcount(loadChunk(a, c)));
    }
    return vaddvq_u16(sum);
}

unsigned
neonXorPopcount(const CacheLine &a, const CacheLine &b)
{
    uint16x8_t sum = vdupq_n_u16(0);
    for (unsigned c = 0; c < 4; ++c) {
        sum = vaddq_u16(
            sum,
            chunkPopcount(veorq_u8(loadChunk(a, c), loadChunk(b, c))));
    }
    return vaddvq_u16(sum);
}

unsigned
neonDiffInto(const CacheLine &a, const CacheLine &b,
             CacheLine &diff_out)
{
    uint16x8_t sum = vdupq_n_u16(0);
    uint8_t *out =
        reinterpret_cast<uint8_t *>(diff_out.limbs().data());
    for (unsigned c = 0; c < 4; ++c) {
        uint8x16_t x = veorq_u8(loadChunk(a, c), loadChunk(b, c));
        vst1q_u8(out + 16 * c, x);
        sum = vaddq_u16(sum, chunkPopcount(x));
    }
    return vaddvq_u16(sum);
}

uint64_t
neonWordDiffMask(const CacheLine &a, const CacheLine &b,
                 unsigned word_bits)
{
    return scalarLineKernelOps()->wordDiffMask(a, b, word_bits);
}

void
neonRegionPopcounts(const CacheLine &diff, unsigned region_bits,
                    uint16_t *out)
{
    scalarLineKernelOps()->regionPopcounts(diff, region_bits, out);
}

unsigned
neonMaskedXorInto(const CacheLine &a, const CacheLine &b,
                  const CacheLine &mask, CacheLine &out)
{
    uint16x8_t sum = vdupq_n_u16(0);
    uint8_t *o = reinterpret_cast<uint8_t *>(out.limbs().data());
    for (unsigned c = 0; c < 4; ++c) {
        uint8x16_t x =
            vandq_u8(veorq_u8(loadChunk(a, c), loadChunk(b, c)),
                     loadChunk(mask, c));
        vst1q_u8(o + 16 * c, x);
        sum = vaddq_u16(sum, chunkPopcount(x));
    }
    return vaddvq_u16(sum);
}

unsigned
neonAndNotInto(const CacheLine &a, const CacheLine &b, CacheLine &out)
{
    uint16x8_t sum = vdupq_n_u16(0);
    uint8_t *o = reinterpret_cast<uint8_t *>(out.limbs().data());
    for (unsigned c = 0; c < 4; ++c) {
        // vbicq(a, b) = a & ~b.
        uint8x16_t x = vbicq_u8(loadChunk(a, c), loadChunk(b, c));
        vst1q_u8(o + 16 * c, x);
        sum = vaddq_u16(sum, chunkPopcount(x));
    }
    return vaddvq_u16(sum);
}

void
neonAccumulateFlips(const CacheLine &diff, uint64_t *counters)
{
    // Sparse diffs (the common case) scan set bits; dense diffs add
    // every position unconditionally — same threshold as AVX2.
    if (neonPopcount(diff) < 128) {
        scalarLineKernelOps()->accumulateFlips(diff, counters);
        return;
    }
    for (unsigned limb = 0; limb < CacheLine::kLimbs; ++limb) {
        uint64_t bits = diff.limbs()[limb];
        uint64_t *base = counters + limb * 64;
        for (unsigned j = 0; j < 64; ++j) {
            base[j] += (bits >> j) & 1;
        }
    }
}

void
neonPopcountBatch(const CacheLine *lines, uint32_t *out,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = neonPopcount(lines[i]);
    }
}

void
neonAccumulateFlipsBatch(const CacheLine *diffs, std::size_t n,
                         uint64_t *counters)
{
    // Carry-save planes + weighted scatter (shared portable core).
    detail::positionalFlipAccumulate(diffs, n, counters);
}

constexpr LineKernelOps kNeonOps = {
    "neon",
    &neonPopcount,
    &neonXorPopcount,
    &neonDiffInto,
    &neonWordDiffMask,
    &neonRegionPopcounts,
    &neonMaskedXorInto,
    &neonAndNotInto,
    &neonAccumulateFlips,
    &neonPopcountBatch,
    &neonAccumulateFlipsBatch,
    &detail::mlcCellDiffExpand,
    &detail::mlcTransitionAccumulate,
};

} // namespace

const LineKernelOps *
neonLineKernelOps()
{
    return &kNeonOps;
}

} // namespace deuce

#else // !defined(__aarch64__)

namespace deuce
{

const LineKernelOps *
neonLineKernelOps()
{
    return nullptr;
}

} // namespace deuce

#endif // defined(__aarch64__)
