/**
 * @file
 * Strict numeric parsing of command-line values and environment
 * variables. A malformed value is rejected, never coerced: each
 * parser returns nullopt, and the caller prints its usage line and
 * exits 2 (valueOrUsage() for a positional argument), or raises
 * deuce_fatal naming the environment variable.
 */

#ifndef DEUCE_COMMON_CLI_PARSE_HH
#define DEUCE_COMMON_CLI_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

namespace deuce
{

/**
 * Strict base-10 unsigned parse: digits only (no sign, no leading
 * space, no trailing junk, not empty) and at most @p max.
 */
inline std::optional<uint64_t>
parseUnsigned(const char *text,
              uint64_t max = std::numeric_limits<uint64_t>::max())
{
    if (!std::isdigit(static_cast<unsigned char>(*text))) {
        return std::nullopt;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max) {
        return std::nullopt;
    }
    return v;
}

/**
 * Strict finite real parse: not empty, no leading space, no trailing
 * junk, no overflow, no inf/nan.
 */
inline std::optional<double>
parseDouble(const char *text)
{
    if (*text == '\0' ||
        std::isspace(static_cast<unsigned char>(*text))) {
        return std::nullopt;
    }
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (*end != '\0' || errno == ERANGE || !std::isfinite(v)) {
        return std::nullopt;
    }
    return v;
}

/** Print "usage: <argv0> <synopsis>" on stderr and exit 2. */
[[noreturn]] inline void
usageExit(const char *argv0, const char *synopsis)
{
    std::fprintf(stderr, "usage: %s %s\n", argv0, synopsis);
    std::exit(2);
}

/** @p value, or usageExit() when it is nullopt (a malformed value). */
template <typename T>
T
valueOrUsage(std::optional<T> value, const char *argv0,
             const char *synopsis)
{
    if (!value) {
        usageExit(argv0, synopsis);
    }
    return *value;
}

} // namespace deuce

#endif // DEUCE_COMMON_CLI_PARSE_HH
