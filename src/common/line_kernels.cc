/**
 * @file
 * Line-kernel registry (CPUID detection, selection resolution, the
 * kind -> ops mapping) and the scalar reference backend — the
 * portable limb-at-a-time loops the SIMD backends are tested against.
 */

#include "common/line_kernels.hh"

#include <bit>
#include <mutex>
#include <string>

#include "common/logging.hh"
#include "common/runtime_events.hh"

namespace deuce
{

// ---------------------------------------------------------------------
// Scalar reference backend.
// ---------------------------------------------------------------------

namespace
{

unsigned
scalarPopcount(const CacheLine &a)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        total += static_cast<unsigned>(std::popcount(a.limbs()[i]));
    }
    return total;
}

unsigned
scalarXorPopcount(const CacheLine &a, const CacheLine &b)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        total += static_cast<unsigned>(
            std::popcount(a.limbs()[i] ^ b.limbs()[i]));
    }
    return total;
}

unsigned
scalarDiffInto(const CacheLine &a, const CacheLine &b,
               CacheLine &diff_out)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = a.limbs()[i] ^ b.limbs()[i];
        diff_out.limbs()[i] = x;
        total += static_cast<unsigned>(std::popcount(x));
    }
    return total;
}

uint64_t
scalarWordDiffMask(const CacheLine &a, const CacheLine &b,
                   unsigned word_bits)
{
    deuce_assert(word_bits >= 8 && word_bits <= CacheLine::kBits &&
                 std::has_single_bit(word_bits));

    uint64_t mask = 0;
    if (word_bits >= 64) {
        unsigned limbs_per_word = word_bits / 64;
        for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
            if (a.limbs()[i] != b.limbs()[i]) {
                mask |= uint64_t{1} << (i / limbs_per_word);
            }
        }
        return mask;
    }

    unsigned words_per_limb = 64 / word_bits;
    uint64_t word_mask = (uint64_t{1} << word_bits) - 1;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = a.limbs()[i] ^ b.limbs()[i];
        for (unsigned j = 0; x != 0 && j < words_per_limb; ++j) {
            if ((x >> (j * word_bits)) & word_mask) {
                mask |= uint64_t{1} << (i * words_per_limb + j);
            }
        }
    }
    return mask;
}

void
scalarRegionPopcounts(const CacheLine &diff, unsigned region_bits,
                      uint16_t *out)
{
    deuce_assert(region_bits >= 2 &&
                 CacheLine::kBits % region_bits == 0);

    if (region_bits >= 64) {
        unsigned limbs_per_region = region_bits / 64;
        unsigned regions = CacheLine::kBits / region_bits;
        for (unsigned r = 0; r < regions; ++r) {
            unsigned total = 0;
            for (unsigned i = 0; i < limbs_per_region; ++i) {
                total += static_cast<unsigned>(std::popcount(
                    diff.limbs()[r * limbs_per_region + i]));
            }
            out[r] = static_cast<uint16_t>(total);
        }
        return;
    }

    unsigned regions_per_limb = 64 / region_bits;
    uint64_t region_mask = (uint64_t{1} << region_bits) - 1;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = diff.limbs()[i];
        for (unsigned j = 0; j < regions_per_limb; ++j) {
            out[i * regions_per_limb + j] =
                static_cast<uint16_t>(std::popcount(
                    (x >> (j * region_bits)) & region_mask));
        }
    }
}

unsigned
scalarMaskedXorInto(const CacheLine &a, const CacheLine &b,
                    const CacheLine &mask, CacheLine &out)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x =
            (a.limbs()[i] ^ b.limbs()[i]) & mask.limbs()[i];
        out.limbs()[i] = x;
        total += static_cast<unsigned>(std::popcount(x));
    }
    return total;
}

unsigned
scalarAndNotInto(const CacheLine &a, const CacheLine &b,
                 CacheLine &out)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = a.limbs()[i] & ~b.limbs()[i];
        out.limbs()[i] = x;
        total += static_cast<unsigned>(std::popcount(x));
    }
    return total;
}

void
scalarAccumulateFlips(const CacheLine &diff, uint64_t *counters)
{
    for (unsigned limb = 0; limb < CacheLine::kLimbs; ++limb) {
        uint64_t bits = diff.limbs()[limb];
        while (bits) {
            unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
            ++counters[limb * 64 + bit];
            bits &= bits - 1;
        }
    }
}

void
scalarPopcountBatch(const CacheLine *lines, uint32_t *out,
                    std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = scalarPopcount(lines[i]);
    }
}

void
scalarAccumulateFlipsBatch(const CacheLine *diffs, std::size_t n,
                           uint64_t *counters)
{
    // The reference is the naive per-line scan — what the batched
    // write path must stay bit-identical to. SIMD backends route
    // through detail::positionalFlipAccumulate instead.
    for (std::size_t i = 0; i < n; ++i) {
        scalarAccumulateFlips(diffs[i], counters);
    }
}

constexpr LineKernelOps kScalarOps = {
    "scalar",
    &scalarPopcount,
    &scalarXorPopcount,
    &scalarDiffInto,
    &scalarWordDiffMask,
    &scalarRegionPopcounts,
    &scalarMaskedXorInto,
    &scalarAndNotInto,
    &scalarAccumulateFlips,
    &scalarPopcountBatch,
    &scalarAccumulateFlipsBatch,
    &detail::mlcCellDiffExpand,
    &detail::mlcTransitionAccumulate,
};

} // namespace

namespace detail
{

unsigned
mlcCellDiffExpand(const CacheLine &diff, CacheLine &cell_mask)
{
    // Even/odd bit pairs of a limb are the 32 cells it holds; OR the
    // pair down onto the even plane, count, and spread back to both
    // bits of each touched cell.
    constexpr uint64_t kEven = 0x5555555555555555ULL;
    unsigned cells = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = diff.limbs()[i];
        uint64_t pair = (x | (x >> 1)) & kEven;
        cells += static_cast<unsigned>(std::popcount(pair));
        cell_mask.limbs()[i] = pair | (pair << 1);
    }
    return cells;
}

void
mlcTransitionAccumulate(const CacheLine &before, const CacheLine &after,
                        uint64_t *counts)
{
    // Bit-plane decode: o0/o1 (n0/n1) are the low/high level bits of
    // all 32 cells of a limb, packed on the even plane, and bucket
    // (old, new) is the AND of an old-level and a new-level mask. The
    // buckets are counted in lanes rather than with a popcount per
    // bucket and limb (which, without a POPCNT baseline, is a library
    // call): cell pairs sum into nibbles over four limbs (at most 8),
    // nibbles fold into bytes over the two half lines (at most 32),
    // and one multiply adds each bucket's 16-bit lanes at the end.
    constexpr uint64_t kEven = 0x5555555555555555ULL;
    constexpr uint64_t kPairs = 0x3333333333333333ULL;
    constexpr uint64_t kNibbles = 0x0f0f0f0f0f0f0f0fULL;
    constexpr uint64_t kBytes = 0x00ff00ff00ff00ffULL;
    uint64_t bytes[16] = {};
    for (unsigned half = 0; half < 2; ++half) {
        uint64_t nibbles[16] = {};
        for (unsigned i = 4 * half; i < 4 * half + 4; ++i) {
            const uint64_t o = before.limbs()[i];
            const uint64_t a = after.limbs()[i];
            const uint64_t o0 = o & kEven;
            const uint64_t o1 = (o >> 1) & kEven;
            const uint64_t n0 = a & kEven;
            const uint64_t n1 = (a >> 1) & kEven;
            const uint64_t old_lv[4] = {kEven & ~(o0 | o1), o0 & ~o1,
                                        o1 & ~o0, o0 & o1};
            const uint64_t new_lv[4] = {kEven & ~(n0 | n1), n0 & ~n1,
                                        n1 & ~n0, n0 & n1};
            for (unsigned from = 0; from < 4; ++from) {
                for (unsigned to = 0; to < 4; ++to) {
                    const uint64_t m = old_lv[from] & new_lv[to];
                    nibbles[from * 4 + to] += (m & kPairs) +
                                              ((m >> 2) & kPairs);
                }
            }
        }
        for (unsigned b = 0; b < 16; ++b) {
            bytes[b] += (nibbles[b] & kNibbles) +
                        ((nibbles[b] >> 4) & kNibbles);
        }
    }
    for (unsigned b = 0; b < 16; ++b) {
        const uint64_t lanes = (bytes[b] & kBytes) + ((bytes[b] >> 8) & kBytes);
        counts[b] += (lanes * 0x0001000100010001ULL) >> 48;
    }
}

} // namespace detail

const LineKernelOps *
scalarLineKernelOps()
{
    return &kScalarOps;
}

// ---------------------------------------------------------------------
// Registry and dispatch.
// ---------------------------------------------------------------------

namespace
{

/** CPUID-level AVX2 support (independent of whether the TU built). */
bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

/** Explicit override installed by setLineBackend(); Auto = none. */
std::atomic<LineBackendKind> g_override{LineBackendKind::Auto};

/** One-time note when an explicit SIMD request has to degrade. */
void
warnUnavailable(const char *wanted)
{
    static std::once_flag warned;
    std::call_once(warned, [wanted] {
        emitRuntimeWarning(
            "line_backend",
            std::string(wanted) +
                " line-kernel backend requested but unavailable on "
                "this host; falling back to scalar (results are "
                "bit-identical)");
    });
}

} // namespace

bool
avx2Compiled()
{
    return avx2LineKernelOps() != nullptr;
}

bool
avx2Available()
{
    return avx2Compiled() && cpuHasAvx2();
}

bool
neonLineKernelsAvailable()
{
    // The NEON TU only builds for aarch64 targets, where the vector
    // unit is architecturally guaranteed: compiled-in means usable.
    return neonLineKernelOps() != nullptr;
}

LineBackendKind
resolveLineBackend(LineBackendKind kind)
{
    switch (kind) {
      case LineBackendKind::Auto:
        if (avx2Available()) {
            return LineBackendKind::Avx2;
        }
        if (neonLineKernelsAvailable()) {
            return LineBackendKind::Neon;
        }
        return LineBackendKind::Scalar;
      case LineBackendKind::Avx2:
        if (!avx2Available()) {
            warnUnavailable("avx2");
            return LineBackendKind::Scalar;
        }
        return kind;
      case LineBackendKind::Neon:
        if (!neonLineKernelsAvailable()) {
            warnUnavailable("neon");
            return LineBackendKind::Scalar;
        }
        return kind;
      default:
        return kind;
    }
}

const LineKernelOps *
lineBackendOps(LineBackendKind kind)
{
    switch (resolveLineBackend(kind)) {
      case LineBackendKind::Avx2:
        return avx2LineKernelOps();
      case LineBackendKind::Neon:
        return neonLineKernelOps();
      case LineBackendKind::Scalar:
      default:
        return scalarLineKernelOps();
    }
}

LineBackendKind
defaultLineBackend()
{
    return resolveLineBackend(
        g_override.load(std::memory_order_relaxed));
}

namespace detail
{

void
positionalFlipAccumulate(const CacheLine *diffs, std::size_t n,
                         uint64_t *counters)
{
    // Carry-save addition: fold up to seven diffs into ones/twos/
    // fours bit-planes per limb with full-adder chains, then scatter
    // each plane once with weight 1/2/4. Per-bit counts within a
    // group never exceed 7, so three planes are exact, and counter
    // addition commutes, so the result matches n sequential
    // accumulateFlips() scans bit for bit.
    while (n > 0) {
        std::size_t g = n < 7 ? n : 7;
        uint64_t ones[CacheLine::kLimbs] = {};
        uint64_t twos[CacheLine::kLimbs] = {};
        uint64_t fours[CacheLine::kLimbs] = {};
        for (std::size_t i = 0; i < g; ++i) {
            for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
                uint64_t x = diffs[i].limbs()[l];
                uint64_t t = ones[l] & x;
                ones[l] ^= x;
                uint64_t c = twos[l] & t;
                twos[l] ^= t;
                fours[l] |= c;
            }
        }
        auto scatter = [counters](const uint64_t *plane,
                                  uint64_t weight) {
            for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
                uint64_t bits = plane[l];
                while (bits) {
                    unsigned bit = static_cast<unsigned>(
                        std::countr_zero(bits));
                    counters[l * 64 + bit] += weight;
                    bits &= bits - 1;
                }
            }
        };
        scatter(ones, 1);
        scatter(twos, 2);
        scatter(fours, 4);
        diffs += g;
        n -= g;
    }
}

std::atomic<const LineKernelOps *> g_activeLineOps{nullptr};

namespace
{
/** Concrete kind behind g_activeLineOps (for row attribution). */
std::atomic<LineBackendKind> g_activeKind{LineBackendKind::Scalar};
} // namespace

const LineKernelOps &
resolveActiveLineOps()
{
    LineBackendKind kind = defaultLineBackend();
    const LineKernelOps *ops = lineBackendOps(kind);
    g_activeKind.store(kind, std::memory_order_relaxed);
    g_activeLineOps.store(ops, std::memory_order_release);
    return *ops;
}

} // namespace detail

void
setLineBackend(LineBackendKind kind)
{
    g_override.store(kind, std::memory_order_relaxed);
    detail::resolveActiveLineOps();
}

LineBackendKind
activeLineBackend()
{
    if (detail::g_activeLineOps.load(std::memory_order_acquire) ==
        nullptr) {
        detail::resolveActiveLineOps();
    }
    return detail::g_activeKind.load(std::memory_order_relaxed);
}

std::optional<LineBackendKind>
parseLineBackendName(const std::string &name)
{
    if (name == "auto") {
        return LineBackendKind::Auto;
    }
    if (name == "scalar") {
        return LineBackendKind::Scalar;
    }
    if (name == "avx2") {
        return LineBackendKind::Avx2;
    }
    if (name == "neon") {
        return LineBackendKind::Neon;
    }
    return std::nullopt;
}

const char *
lineBackendName(LineBackendKind kind)
{
    switch (kind) {
      case LineBackendKind::Auto:
        return "auto";
      case LineBackendKind::Scalar:
        return "scalar";
      case LineBackendKind::Avx2:
        return "avx2";
      case LineBackendKind::Neon:
        return "neon";
    }
    return "auto";
}

std::vector<LineBackendKind>
availableLineBackends()
{
    std::vector<LineBackendKind> kinds{LineBackendKind::Scalar};
    if (avx2Available()) {
        kinds.push_back(LineBackendKind::Avx2);
    }
    if (neonLineKernelsAvailable()) {
        kinds.push_back(LineBackendKind::Neon);
    }
    return kinds;
}

} // namespace deuce
