/**
 * @file
 * Line-kernel registry: runtime-dispatched SIMD backends for the
 * CacheLine diff/flip primitives every simulated writeback funnels
 * through.
 *
 * The library ships up to three bit-identical implementations of the
 * fused line primitives (XOR+popcount, per-word diff masks, per-region
 * flip counts, wear accumulation, cross-line batch sweeps):
 *
 *  - "scalar"  portable limb-at-a-time reference, extracted from the
 *              historical CacheLine/FNW/DEUCE loops (line_kernels.cc):
 *              the oracle of every differential test, and the
 *              fallback on hosts with neither AVX2 nor NEON
 *  - "avx2"    256-bit nibble-LUT popcount (vpshufb + vpsadbw); the
 *              only TU compiled with -mavx2 and only dispatched to
 *              when CPUID reports AVX2 (line_kernels_avx2.cc)
 *  - "neon"    128-bit CNT/ADDLP/ADDV popcount; baseline on AArch64,
 *              stubbed out elsewhere (line_kernels_neon.cc)
 *
 * The active backend is the setLineBackend() override (the
 * --line-backend CLI flag), else Auto. Auto resolves to the fastest
 * backend the host supports (avx2 > neon > scalar); an explicit
 * request for an unavailable backend degrades to scalar with a
 * one-time warning, never an error — all backends produce identical
 * results, so a fallback changes wall-clock only. The claim is
 * enforced by the backend-differential tests
 * (tests/common/test_line_kernels.cc) and the golden sweep regression
 * (tests/sim/test_sweep_golden.cc).
 */

#ifndef DEUCE_COMMON_LINE_KERNELS_HH
#define DEUCE_COMMON_LINE_KERNELS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cache_line.hh"

namespace deuce
{

/**
 * Selectable line-kernel implementations. The values are stable: a
 * removed backend leaves a gap (2 was the SSE2 backend) rather than
 * renumbering the rest.
 */
enum class LineBackendKind
{
    Auto = 0,   ///< resolve to the fastest available backend
    Scalar = 1, ///< portable limb-at-a-time reference implementation
    Avx2 = 3,   ///< 256-bit AVX2 implementation
    Neon = 4,   ///< 128-bit ARMv8 NEON implementation
};

/**
 * Function table of one backend. All functions must be bit-identical
 * to the scalar reference for every input; they differ in wall-clock
 * only. Output parameters may alias inputs (every implementation
 * loads a full line before storing any of it).
 */
struct LineKernelOps
{
    const char *name;

    /** Number of set bits in the line. */
    unsigned (*popcount)(const CacheLine &a);

    /** popcount(a ^ b) without materializing the diff. */
    unsigned (*xorPopcount)(const CacheLine &a, const CacheLine &b);

    /**
     * One-pass fused diff: writes a ^ b into @p diff_out (which may
     * alias @p a or @p b) and returns its popcount.
     */
    unsigned (*diffInto)(const CacheLine &a, const CacheLine &b,
                         CacheLine &diff_out);

    /**
     * Per-word diff bitmask: bit w is set iff word w of @p a and
     * @p b differ. @p word_bits must be a power of two in [8, 512]
     * (16 words of 32 bits is the shape the DEUCE hot path uses; BLE
     * uses 4 words of 128 bits).
     */
    uint64_t (*wordDiffMask)(const CacheLine &a, const CacheLine &b,
                             unsigned word_bits);

    /**
     * Masked per-region flip counts: out[r] = popcount of region r of
     * @p diff. @p region_bits must divide 512 (FNW regions are 16
     * bits; the device write slots are 4x128 bits). @p out must hold
     * 512 / region_bits entries.
     */
    void (*regionPopcounts)(const CacheLine &diff, unsigned region_bits,
                            uint16_t *out);

    /**
     * Fused stuck-cell conflict scan: out = (a ^ b) & mask, returning
     * its popcount. @p out may alias any input.
     */
    unsigned (*maskedXorInto)(const CacheLine &a, const CacheLine &b,
                              const CacheLine &mask, CacheLine &out);

    /** out = a & ~b, returning its popcount. @p out may alias. */
    unsigned (*andNotInto)(const CacheLine &a, const CacheLine &b,
                           CacheLine &out);

    /**
     * Wear accumulation: counters[i] += 1 for every set bit i of
     * @p diff. @p counters must hold CacheLine::kBits entries. The
     * strategy (sparse bit-scan vs dense add) is the backend's
     * choice; the resulting counter values are identical.
     */
    void (*accumulateFlips)(const CacheLine &diff, uint64_t *counters);

    /**
     * Batched per-line popcount for write bursts: out[i] =
     * popcount(lines[i]) for i in [0, n).
     */
    void (*popcountBatch)(const CacheLine *lines, uint32_t *out,
                          std::size_t n);

    /**
     * Cross-line wear accumulation: counters[i] += number of diffs
     * among @p diffs with bit i set — exactly n accumulateFlips()
     * calls folded into one pass so the 512 wear counters are walked
     * once per burst, not once per line. @p counters must hold
     * CacheLine::kBits entries.
     */
    void (*accumulateFlipsBatch)(const CacheLine *diffs, std::size_t n,
                                 uint64_t *counters);

    /**
     * MLC2 cell-granularity diff expansion: treats the line as 256
     * 2-bit cells (cell c = bits 2c and 2c+1), writes into
     * @p cell_mask a mask with BOTH bits of every cell touched by
     * @p diff set, and returns the number of programmed cells.
     * Programming an MLC cell rewrites its whole level, so wear
     * charges per cell, not per flipped bit. @p cell_mask may alias
     * @p diff.
     */
    unsigned (*mlcCellDiffInto)(const CacheLine &diff,
                                CacheLine &cell_mask);

    /**
     * MLC2 transition histogram: counts[old_level * 4 + new_level] +=
     * number of cells moving old -> new between @p before and
     * @p after, for all 16 (old, new) pairs including the same-level
     * diagonal. @p counts must hold 16 entries; entries are
     * accumulated, not overwritten.
     */
    void (*mlcTransitionCounts)(const CacheLine &before,
                                const CacheLine &after,
                                uint64_t *counts);
};

/** True when the AVX2 TU was compiled in (CMake DEUCE_AVX2). */
bool avx2Compiled();

/** True when AVX2 is both compiled in and reported by CPUID. */
bool avx2Available();

/** True when the NEON line-kernel TU was compiled in (DEUCE_NEON). */
bool neonLineKernelsAvailable();

/**
 * Resolve @p kind to a concrete, available backend: Auto picks the
 * best available; an explicit but unavailable request degrades to
 * scalar with a one-time stderr note.
 */
LineBackendKind resolveLineBackend(LineBackendKind kind);

/** Ops table for @p kind (resolved first; never returns null). */
const LineKernelOps *lineBackendOps(LineBackendKind kind);

/**
 * Process-wide default backend: the setLineBackend() override if
 * any, else Auto — resolved to a concrete backend.
 */
LineBackendKind defaultLineBackend();

/**
 * Override the default backend (the --line-backend flag). Takes
 * effect immediately: the next lineKernels() call anywhere in the
 * process dispatches through the new table.
 */
void setLineBackend(LineBackendKind kind);

/** Concrete backend the process is currently dispatching to. */
LineBackendKind activeLineBackend();

/**
 * Parse "auto"/"scalar"/"avx2"/"neon"; nullopt on anything else.
 */
std::optional<LineBackendKind> parseLineBackendName(
    const std::string &name);

/** Canonical lowercase name of @p kind ("auto" for Auto). */
const char *lineBackendName(LineBackendKind kind);

/**
 * The concrete backends this process can dispatch to (scalar always,
 * avx2/neon when available) — what the differential tests and the
 * per-backend micro benchmarks iterate over.
 */
std::vector<LineBackendKind> availableLineBackends();

/** Scalar reference ops table (defined in line_kernels.cc). */
const LineKernelOps *scalarLineKernelOps();

/**
 * The AVX2 ops table, or null when not compiled in. Defined by
 * line_kernels_avx2.cc (real) or line_kernels_avx2_stub.cc (null)
 * depending on the DEUCE_AVX2 CMake option; everything else goes
 * through lineBackendOps().
 */
const LineKernelOps *avx2LineKernelOps();

/**
 * The NEON ops table, or null when not compiled in. Defined by
 * line_kernels_neon.cc (real) or line_kernels_neon_stub.cc (null)
 * depending on the DEUCE_NEON CMake option.
 */
const LineKernelOps *neonLineKernelOps();

namespace detail
{

/** Cached active ops table; null until first resolution. */
extern std::atomic<const LineKernelOps *> g_activeLineOps;

/** Slow path: resolve the default backend and cache its table. */
const LineKernelOps &resolveActiveLineOps();

/**
 * Shared carry-save positional flip accumulator: the portable core
 * of every SIMD backend's accumulateFlipsBatch. Groups of up to
 * seven diffs are folded into ones/twos/fours bit-planes with
 * full-adder chains, then each plane is scattered into @p counters
 * with weight 1/2/4 — one sparse scan per plane instead of one per
 * line. Bit-identical to n sequential accumulateFlips() calls
 * because counter addition commutes.
 */
void positionalFlipAccumulate(const CacheLine *diffs, std::size_t n,
                              uint64_t *counters);

/**
 * Shared MLC2 kernels (line_kernels.cc). The cell-pair spreading and
 * the 16-bucket transition histogram are pure SWAR bit-plane logic
 * with no wide-vector win on current targets, so every backend table
 * points at the same implementations — still bit-identical across
 * backends by construction.
 */
unsigned mlcCellDiffExpand(const CacheLine &diff, CacheLine &cell_mask);
void mlcTransitionAccumulate(const CacheLine &before,
                             const CacheLine &after, uint64_t *counts);

} // namespace detail

/**
 * The active backend's ops table — the one-load fast path every hot
 * call site (CacheLine::popcount, makeWriteResult, applyFnw, ...)
 * dispatches through.
 */
inline const LineKernelOps &
lineKernels()
{
    const LineKernelOps *ops =
        detail::g_activeLineOps.load(std::memory_order_acquire);
    return ops != nullptr ? *ops : detail::resolveActiveLineOps();
}

} // namespace deuce

#endif // DEUCE_COMMON_LINE_KERNELS_HH
