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
 *  - "aesni"   hardware AESENC via x86 AES-NI, eight blocks in
 *              flight, compiled in a separately-flagged TU and only
 *              dispatched to when CPUID reports support (aes_aesni.cc)
 *  - "vaes"    512-bit VAES/AVX-512: four blocks per AESENC, sixteen
 *              blocks in flight, for cross-line pad bursts
 *              (aes_vaes.cc)
 *  - "neon"    ARMv8 AESE/AESMC crypto extensions, four blocks in
 *              flight (aes_neon.cc)
 *
 * Counter mode only ever runs the cipher forward, so a backend is one
 * n-block encrypt; the key schedule is the portable FIPS-197
 * expansion in the Aes128 constructor, shared by every backend.
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
 * Function table of one backend: its name and one n-block encrypt.
 * `encrypt` runs @p nblocks independent contiguous 16-byte blocks
 * (in[16*n] -> out[16*n], FIPS-197 byte order) through the cipher,
 * pipelining rounds across blocks as wide as the backend can; @p in
 * and @p out may alias only exactly, and nblocks may be 0. Every
 * backend must be bit-identical to the scalar reference for every
 * key, block and nblocks.
 */
struct AesBackendOps
{
    const char *name;
    void (*encrypt)(const Aes128 &aes, const uint8_t *in, uint8_t *out,
                    std::size_t nblocks);
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
