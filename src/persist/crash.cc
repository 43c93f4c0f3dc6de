/**
 * @file
 * CrashInjector implementation.
 */

#include "persist/crash.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace deuce
{

uint64_t
CrashInjector::chooseIndex(uint64_t seed, uint64_t max_exclusive)
{
    deuce_assert(max_exclusive > 0);
    return splitMix64(seed) % max_exclusive;
}

} // namespace deuce
