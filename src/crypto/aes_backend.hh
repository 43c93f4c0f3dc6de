/**
 * @file
 * AES backend registry and runtime dispatch.
 *
 * The library ships up to four bit-identical implementations of the
 * FIPS-197 cipher:
 *
 *  - "scalar"  byte-oriented reference (aes.cc): the oracle of every
 *              differential test, and the fallback on hosts without
 *              a hardware AES unit
 *  - "aesni"   hardware AESENC/AESDEC via x86 AES-NI, compiled in a
 *              separately-flagged TU and only dispatched to when
 *              CPUID reports support (aes_aesni.cc)
 *  - "vaes"    512-bit VAES/AVX-512: four blocks per AESENC, sixteen
 *              blocks in flight, for cross-line pad bursts
 *              (aes_vaes.cc)
 *  - "neon"    ARMv8 AESE/AESMC crypto extensions (aes_neon.cc)
 *
 * The default backend is the setAesBackend() override (the
 * --aes-backend CLI flag), else Auto. Auto resolves to the fastest
 * backend the host supports (vaes > aesni > neon > scalar); an
 * explicit request for an unavailable backend warns once and
 * re-enters Auto, never an error — all backends produce identical
 * bytes, so a fallback changes wall-clock only.
 */

#ifndef DEUCE_CRYPTO_AES_BACKEND_HH
#define DEUCE_CRYPTO_AES_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace deuce
{

class Aes128;

/**
 * Selectable AES implementations. The values are stable: a removed
 * backend leaves a gap (2 was the T-table backend) rather than
 * renumbering the rest.
 */
enum class AesBackendKind
{
    Auto = 0,   ///< resolve to the fastest available backend
    Scalar = 1, ///< byte-oriented reference implementation
    AesNi = 3,  ///< x86 AES-NI hardware instructions
    Vaes = 4,   ///< x86 VAES/AVX-512 (512-bit, 4 blocks per instruction)
    Neon = 5,   ///< ARMv8 AESE/AESMC crypto extensions
};

/**
 * Function table of one backend. Blocks are raw 16-byte buffers in
 * FIPS-197 order; `encrypt4` processes four independent blocks
 * (in[64] -> out[64]) so implementations can pipeline rounds across
 * blocks. All functions must be bit-identical to the scalar
 * reference for every key and block.
 */
struct AesBackendOps
{
    const char *name;
    void (*encrypt1)(const Aes128 &aes, const uint8_t in[16],
                     uint8_t out[16]);
    void (*decrypt1)(const Aes128 &aes, const uint8_t in[16],
                     uint8_t out[16]);
    void (*encrypt4)(const Aes128 &aes, const uint8_t in[64],
                     uint8_t out[64]);
    /**
     * Optional hardware key-schedule hook (AESKEYGENASSIST). When
     * null the portable FIPS-197 expansion in the Aes128 constructor
     * runs instead; when set it must produce the same bytes.
     */
    void (*expandKeys)(Aes128 &aes, const uint8_t key[16]);

    /**
     * Optional wide-batch hook: encrypt @p nblocks independent
     * contiguous 16-byte blocks (in[16*n] -> out[16*n]). Null means
     * the caller strip-mines through encrypt4/encrypt1; when set it
     * must be bit-identical to that loop. Backends wider than four
     * blocks (VAES) live here.
     */
    void (*encryptMany)(const Aes128 &aes, const uint8_t *in,
                        uint8_t *out, std::size_t nblocks);
};

/** True when the AES-NI TU was compiled in (CMake DEUCE_AESNI). */
bool aesniCompiled();

/** True when AES-NI is both compiled in and reported by CPUID. */
bool aesniAvailable();

/** True when the VAES TU was compiled in (CMake DEUCE_VAES). */
bool vaesCompiled();

/** True when VAES+AVX-512 is compiled in and reported by CPUID. */
bool vaesAvailable();

/** True when the NEON AES TU was compiled in (CMake DEUCE_NEON). */
bool aesNeonCompiled();

/** True when the ARMv8 crypto extensions are compiled in and present. */
bool aesNeonAvailable();

/**
 * Resolve @p kind to a concrete, available backend: Auto picks the
 * best available; an explicit but unavailable request resolves as
 * Auto after a one-time stderr note.
 */
AesBackendKind resolveAesBackend(AesBackendKind kind);

/** Ops table for @p kind (resolved first; never returns null). */
const AesBackendOps *aesBackendOps(AesBackendKind kind);

/**
 * Process-wide default backend used by Aes128 instances constructed
 * without an explicit kind: the setAesBackend() override if any, else
 * Auto — resolved to a concrete backend.
 */
AesBackendKind defaultAesBackend();

/**
 * Override the default backend (the --aes-backend flag). Call before
 * constructing engines; existing Aes128 instances keep the backend
 * they were built with.
 */
void setAesBackend(AesBackendKind kind);

/**
 * Parse "auto"/"scalar"/"aesni"/"vaes"/"neon"; nullopt on anything
 * else.
 */
std::optional<AesBackendKind> parseAesBackendName(
    const std::string &name);

/** Canonical lowercase name of @p kind ("auto" for Auto). */
const char *aesBackendName(AesBackendKind kind);

/** Scalar reference ops table (defined in aes.cc). */
const AesBackendOps *scalarBackendOps();

/**
 * The AES-NI ops table, or null when not compiled in. Defined by
 * aes_aesni.cc (real) or aes_aesni_stub.cc (null) depending on the
 * DEUCE_AESNI CMake option; everything else goes through
 * aesBackendOps().
 */
const AesBackendOps *aesniBackendOps();

/**
 * The VAES/AVX-512 ops table, or null when not compiled in. Defined
 * by aes_vaes.cc (real) or aes_vaes_stub.cc (null) under the
 * DEUCE_VAES CMake option.
 */
const AesBackendOps *vaesBackendOps();

/**
 * The ARMv8 NEON crypto ops table, or null when not compiled in.
 * Defined by aes_neon.cc (real) or aes_neon_stub.cc (null) under the
 * DEUCE_NEON CMake option.
 */
const AesBackendOps *aesNeonBackendOps();

} // namespace deuce

#endif // DEUCE_CRYPTO_AES_BACKEND_HH
