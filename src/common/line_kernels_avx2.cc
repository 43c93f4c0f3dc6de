/**
 * @file
 * AVX2 line-kernel backend: the whole 512-bit line in two 256-bit
 * registers, per-byte popcounts via the VPSHUFB nibble LUT (Mula's
 * method) summed with VPSADBW. This is the only TU compiled with
 * -mavx2 (no global -march change): the backend is gated at runtime
 * by CPUID, so the rest of the binary must stay runnable on hosts
 * without AVX2.
 */

#include "common/line_kernels.hh"

#include <immintrin.h>

#include <bit>

#include "common/logging.hh"

namespace deuce
{

namespace
{

inline __m256i
loadHalf(const CacheLine &line, unsigned half)
{
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(line.limbs() + 4 * half));
}

inline void
storeHalf(CacheLine &line, unsigned half, __m256i v)
{
    _mm256_storeu_si256(
        reinterpret_cast<__m256i *>(line.limbs() + 4 * half), v);
}

/** Per-byte popcounts of @p v: nibble LUT, two VPSHUFB per vector. */
inline __m256i
bytePopcounts(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i lo = _mm256_and_si256(v, low);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** Horizontal sum of the four 64-bit lanes of @p v. */
inline unsigned
laneSum(__m256i v)
{
    __m128i lo = _mm256_castsi256_si128(v);
    __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(s) +
        _mm_cvtsi128_si64(_mm_srli_si128(s, 8)));
}

inline __m256i
sadToLanes(__m256i byte_counts)
{
    return _mm256_sad_epu8(byte_counts, _mm256_setzero_si256());
}

unsigned
avx2Popcount(const CacheLine &a)
{
    __m256i acc =
        _mm256_add_epi64(sadToLanes(bytePopcounts(loadHalf(a, 0))),
                         sadToLanes(bytePopcounts(loadHalf(a, 1))));
    return laneSum(acc);
}

unsigned
avx2XorPopcount(const CacheLine &a, const CacheLine &b)
{
    __m256i x0 = _mm256_xor_si256(loadHalf(a, 0), loadHalf(b, 0));
    __m256i x1 = _mm256_xor_si256(loadHalf(a, 1), loadHalf(b, 1));
    __m256i acc = _mm256_add_epi64(sadToLanes(bytePopcounts(x0)),
                                   sadToLanes(bytePopcounts(x1)));
    return laneSum(acc);
}

unsigned
avx2DiffInto(const CacheLine &a, const CacheLine &b,
             CacheLine &diff_out)
{
    __m256i x0 = _mm256_xor_si256(loadHalf(a, 0), loadHalf(b, 0));
    __m256i x1 = _mm256_xor_si256(loadHalf(a, 1), loadHalf(b, 1));
    storeHalf(diff_out, 0, x0);
    storeHalf(diff_out, 1, x1);
    __m256i acc = _mm256_add_epi64(sadToLanes(bytePopcounts(x0)),
                                   sadToLanes(bytePopcounts(x1)));
    return laneSum(acc);
}

uint64_t
avx2WordDiffMask(const CacheLine &a, const CacheLine &b,
                 unsigned word_bits)
{
    deuce_assert(word_bits >= 8 && word_bits <= CacheLine::kBits &&
                 std::has_single_bit(word_bits));

    // One vector compare at the word's own width; the movemask then
    // needs no cross-byte collapse. 8-bit words: PMOVMSKB directly.
    if (word_bits == 8) {
        uint32_t eq0 = static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(loadHalf(a, 0), loadHalf(b, 0))));
        uint32_t eq1 = static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(loadHalf(a, 1), loadHalf(b, 1))));
        return ~(static_cast<uint64_t>(eq1) << 32 | eq0);
    }
    if (word_bits == 16) {
        // Saturating pack narrows each 16-bit 0/FFFF compare result
        // to one byte; the pack interleaves 128-bit lanes, so a
        // qword permute restores word order before the movemask.
        __m256i eq0 =
            _mm256_cmpeq_epi16(loadHalf(a, 0), loadHalf(b, 0));
        __m256i eq1 =
            _mm256_cmpeq_epi16(loadHalf(a, 1), loadHalf(b, 1));
        __m256i packed = _mm256_permute4x64_epi64(
            _mm256_packs_epi16(eq0, eq1), _MM_SHUFFLE(3, 1, 2, 0));
        uint32_t eq = static_cast<uint32_t>(
            _mm256_movemask_epi8(packed));
        return static_cast<uint64_t>(~eq) & 0xffffffffu;
    }
    if (word_bits == 32) {
        uint32_t eq0 = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(loadHalf(a, 0), loadHalf(b, 0)))));
        uint32_t eq1 = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(loadHalf(a, 1), loadHalf(b, 1)))));
        return ~(eq1 << 8 | eq0) & 0xffffu;
    }
    // 64-bit and wider words span whole limbs: OR the limb XORs of
    // each word and test for zero — a handful of scalar ops.
    unsigned limbs_per_word = word_bits / 64;
    unsigned words = CacheLine::kBits / word_bits;
    uint64_t out = 0;
    for (unsigned w = 0; w < words; ++w) {
        uint64_t d = 0;
        for (unsigned l = 0; l < limbs_per_word; ++l) {
            unsigned i = w * limbs_per_word + l;
            d |= a.limbs()[i] ^ b.limbs()[i];
        }
        out |= static_cast<uint64_t>(d != 0) << w;
    }
    return out;
}

void
avx2RegionPopcounts(const CacheLine &diff, unsigned region_bits,
                    uint16_t *out)
{
    if (region_bits < 8) {
        // Sub-byte regions: no SIMD win, delegate to the reference.
        scalarLineKernelOps()->regionPopcounts(diff, region_bits, out);
        return;
    }
    deuce_assert(CacheLine::kBits % region_bits == 0);

    if (region_bits >= 64) {
        // VPSADBW already produces per-64-bit-lane sums; regions are
        // whole numbers of lanes, so sum lane groups directly.
        uint64_t lanes[CacheLine::kLimbs];
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(lanes),
            sadToLanes(bytePopcounts(loadHalf(diff, 0))));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(lanes + 4),
            sadToLanes(bytePopcounts(loadHalf(diff, 1))));
        unsigned limbs_per_region = region_bits / 64;
        unsigned regions = CacheLine::kBits / region_bits;
        for (unsigned r = 0; r < regions; ++r) {
            unsigned total = 0;
            for (unsigned i = 0; i < limbs_per_region; ++i) {
                total += static_cast<unsigned>(
                    lanes[r * limbs_per_region + i]);
            }
            out[r] = static_cast<uint16_t>(total);
        }
        return;
    }

    uint8_t counts[CacheLine::kBytes];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(counts),
                        bytePopcounts(loadHalf(diff, 0)));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(counts + 32),
                        bytePopcounts(loadHalf(diff, 1)));
    unsigned bytes_per_region = region_bits / 8;
    unsigned regions = CacheLine::kBits / region_bits;
    for (unsigned r = 0; r < regions; ++r) {
        unsigned total = 0;
        for (unsigned i = 0; i < bytes_per_region; ++i) {
            total += counts[r * bytes_per_region + i];
        }
        out[r] = static_cast<uint16_t>(total);
    }
}

unsigned
avx2MaskedXorInto(const CacheLine &a, const CacheLine &b,
                  const CacheLine &mask, CacheLine &out)
{
    __m256i x0 = _mm256_and_si256(
        _mm256_xor_si256(loadHalf(a, 0), loadHalf(b, 0)),
        loadHalf(mask, 0));
    __m256i x1 = _mm256_and_si256(
        _mm256_xor_si256(loadHalf(a, 1), loadHalf(b, 1)),
        loadHalf(mask, 1));
    storeHalf(out, 0, x0);
    storeHalf(out, 1, x1);
    __m256i acc = _mm256_add_epi64(sadToLanes(bytePopcounts(x0)),
                                   sadToLanes(bytePopcounts(x1)));
    return laneSum(acc);
}

unsigned
avx2AndNotInto(const CacheLine &a, const CacheLine &b, CacheLine &out)
{
    // _mm256_andnot_si256(m, v) computes ~m & v.
    __m256i x0 = _mm256_andnot_si256(loadHalf(b, 0), loadHalf(a, 0));
    __m256i x1 = _mm256_andnot_si256(loadHalf(b, 1), loadHalf(a, 1));
    storeHalf(out, 0, x0);
    storeHalf(out, 1, x1);
    __m256i acc = _mm256_add_epi64(sadToLanes(bytePopcounts(x0)),
                                   sadToLanes(bytePopcounts(x1)));
    return laneSum(acc);
}

void
avx2AccumulateFlips(const CacheLine &diff, uint64_t *counters)
{
    // Sparse diffs scan set bits; dense diffs use a branch-free
    // per-position add the compiler vectorizes (VPSRLVQ is available
    // in this TU). Addition commutes, so the counter values are
    // identical either way.
    if (avx2Popcount(diff) < 128) {
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
avx2PopcountBatch(const CacheLine *lines, uint32_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = avx2Popcount(lines[i]);
    }
}

/**
 * Burst size from which avx2AccumulateFlipsBatch counts in byte
 * lanes. Below it the fixed pass that widens 512 byte counters into
 * the 64-bit counters costs more than scattering the set bits of a
 * few sparse diffs.
 */
constexpr std::size_t kByteLaneMinLines = 8;

/**
 * Vertical byte counters: every bit position of the line gets one
 * byte lane, sixteen 32-lane accumulators in all. Each 32-bit slice
 * of a diff is broadcast, spread one source byte per 8 lanes
 * (VPSHUFB), reduced to its own bit per lane and compared: a set
 * bit yields -1 in its lane, and subtracting that counts it. Lanes
 * are widened into @p counters every 255 lines, before one can wrap.
 * Branch-free, so sparse and dense diffs cost the same.
 */
void
avx2ByteLaneAccumulate(const CacheLine *diffs, std::size_t n,
                       uint64_t *counters)
{
    const __m256i spread = _mm256_setr_epi8(
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
        2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
    const __m256i bit_of_lane =
        _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ull));
    constexpr unsigned kSlices = CacheLine::kBits / 32;
    while (n > 0) {
        std::size_t g = n < 255 ? n : 255;
        __m256i lanes[kSlices];
        for (__m256i &v : lanes) {
            v = _mm256_setzero_si256();
        }
        for (std::size_t i = 0; i < g; ++i) {
            for (unsigned j = 0; j < kSlices; ++j) {
                uint64_t limb = diffs[i].limbs()[j / 2];
                __m256i v = _mm256_shuffle_epi8(
                    _mm256_set1_epi32(static_cast<int>(
                        static_cast<uint32_t>(limb >> (32 * (j % 2))))),
                    spread);
                __m256i hit = _mm256_cmpeq_epi8(
                    _mm256_and_si256(v, bit_of_lane), bit_of_lane);
                lanes[j] = _mm256_sub_epi8(lanes[j], hit);
            }
        }
        for (unsigned j = 0; j < kSlices; ++j) {
            alignas(32) uint32_t quads[8];
            _mm256_store_si256(reinterpret_cast<__m256i *>(quads),
                               lanes[j]);
            uint64_t *c = counters + 32 * j;
            for (unsigned q = 0; q < 8; ++q) {
                __m256i wide = _mm256_cvtepu8_epi64(
                    _mm_cvtsi32_si128(static_cast<int>(quads[q])));
                __m256i *dst = reinterpret_cast<__m256i *>(c + 4 * q);
                _mm256_storeu_si256(
                    dst, _mm256_add_epi64(_mm256_loadu_si256(dst), wide));
            }
        }
        diffs += g;
        n -= g;
    }
}

void
avx2AccumulateFlipsBatch(const CacheLine *diffs, std::size_t n,
                         uint64_t *counters)
{
    if (n < kByteLaneMinLines) {
        // Carry-save planes + weighted scatter (shared portable core).
        detail::positionalFlipAccumulate(diffs, n, counters);
        return;
    }
    avx2ByteLaneAccumulate(diffs, n, counters);
}

constexpr LineKernelOps kAvx2Ops = {
    "avx2",
    &avx2Popcount,
    &avx2XorPopcount,
    &avx2DiffInto,
    &avx2WordDiffMask,
    &avx2RegionPopcounts,
    &avx2MaskedXorInto,
    &avx2AndNotInto,
    &avx2AccumulateFlips,
    &avx2PopcountBatch,
    &avx2AccumulateFlipsBatch,
    &detail::mlcCellDiffExpand,
    &detail::mlcTransitionAccumulate,
};

} // namespace

const LineKernelOps *
avx2LineKernelOps()
{
    return &kAvx2Ops;
}

} // namespace deuce
