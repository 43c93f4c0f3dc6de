/**
 * @file
 * AES backend registry: CPUID detection, selection resolution
 * (setAesBackend, else Auto), and the kind -> ops mapping.
 */

#include "crypto/aes_backend.hh"

#include <atomic>
#include <mutex>
#include <string>

#include "obs/flight_recorder.hh"

namespace deuce
{

namespace
{

/** CPUID-level AES-NI support (independent of whether the TU built). */
bool
cpuHasAesni()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("aes");
#else
    return false;
#endif
}

/** CPUID-level VAES + AVX-512F support (512-bit AESENC forms). */
bool
cpuHasVaes()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("vaes") &&
           __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw");
#else
    return false;
#endif
}

/** ARMv8 crypto-extension support. The TU only builds for aarch64
 *  targets with +crypto, so compiled-in implies the instructions
 *  exist on every CPU the binary runs on. */
bool
cpuHasNeonAes()
{
#if defined(__aarch64__)
    return true;
#else
    return false;
#endif
}

/** Explicit override installed by setAesBackend(); Auto = none. */
std::atomic<AesBackendKind> g_override{AesBackendKind::Auto};

/** One-time note when an explicit request has to degrade to Auto. */
void
warnUnavailable(const char *wanted, const char *reason)
{
    // call_once (rather than an atomic exchange) gives the losing
    // threads a happens-before edge on the winner's fprintf: no
    // thread can proceed while the warning is mid-write.
    static std::once_flag warned;
    std::call_once(warned, [wanted, reason] {
        obs::logEvent(obs::FlightEventKind::Degrade, "aes_backend",
                      std::string(wanted) + " backend requested but " +
                          reason + "; falling back to auto (results "
                          "are bit-identical)");
    });
}

} // namespace

bool
aesniCompiled()
{
    return aesniBackendOps() != nullptr;
}

bool
aesniAvailable()
{
    return aesniCompiled() && cpuHasAesni();
}

bool
vaesCompiled()
{
    return vaesBackendOps() != nullptr;
}

bool
vaesAvailable()
{
    return vaesCompiled() && cpuHasVaes();
}

bool
aesNeonCompiled()
{
    return aesNeonBackendOps() != nullptr;
}

bool
aesNeonAvailable()
{
    return aesNeonCompiled() && cpuHasNeonAes();
}

AesBackendKind
resolveAesBackend(AesBackendKind kind)
{
    // Availability ladder: vaes > aesni > neon > scalar. An explicit
    // but unavailable request warns once and re-enters at Auto.
    switch (kind) {
      case AesBackendKind::Auto:
        if (vaesAvailable()) {
            return AesBackendKind::Vaes;
        }
        if (aesniAvailable()) {
            return AesBackendKind::AesNi;
        }
        if (aesNeonAvailable()) {
            return AesBackendKind::Neon;
        }
        return AesBackendKind::Scalar;
      case AesBackendKind::Vaes:
        if (!vaesAvailable()) {
            warnUnavailable("vaes", vaesCompiled()
                                        ? "CPU lacks VAES/AVX-512"
                                        : "not compiled in");
            return resolveAesBackend(AesBackendKind::Auto);
        }
        return kind;
      case AesBackendKind::AesNi:
        if (!aesniAvailable()) {
            warnUnavailable("aesni", aesniCompiled()
                                         ? "CPU lacks AES-NI"
                                         : "not compiled in");
            return resolveAesBackend(AesBackendKind::Auto);
        }
        return kind;
      case AesBackendKind::Neon:
        if (!aesNeonAvailable()) {
            warnUnavailable("neon", aesNeonCompiled()
                                        ? "CPU lacks the crypto "
                                          "extensions"
                                        : "not compiled in");
            return resolveAesBackend(AesBackendKind::Auto);
        }
        return kind;
      default:
        return kind;
    }
}

const AesBackendOps *
aesBackendOps(AesBackendKind kind)
{
    switch (resolveAesBackend(kind)) {
      case AesBackendKind::AesNi:
        return aesniBackendOps();
      case AesBackendKind::Vaes:
        return vaesBackendOps();
      case AesBackendKind::Neon:
        return aesNeonBackendOps();
      case AesBackendKind::Scalar:
      default:
        return scalarBackendOps();
    }
}

AesBackendKind
defaultAesBackend()
{
    return resolveAesBackend(g_override.load(std::memory_order_relaxed));
}

void
setAesBackend(AesBackendKind kind)
{
    g_override.store(kind, std::memory_order_relaxed);
}

std::optional<AesBackendKind>
parseAesBackendName(const std::string &name)
{
    if (name == "auto") {
        return AesBackendKind::Auto;
    }
    if (name == "scalar") {
        return AesBackendKind::Scalar;
    }
    if (name == "aesni") {
        return AesBackendKind::AesNi;
    }
    if (name == "vaes") {
        return AesBackendKind::Vaes;
    }
    if (name == "neon") {
        return AesBackendKind::Neon;
    }
    return std::nullopt;
}

const char *
aesBackendName(AesBackendKind kind)
{
    switch (kind) {
      case AesBackendKind::Auto:
        return "auto";
      case AesBackendKind::Scalar:
        return "scalar";
      case AesBackendKind::AesNi:
        return "aesni";
      case AesBackendKind::Vaes:
        return "vaes";
      case AesBackendKind::Neon:
        return "neon";
    }
    return "auto";
}

} // namespace deuce
