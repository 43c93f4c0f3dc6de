/**
 * @file
 * Scheme factory implementation.
 */

#include "enc/scheme_factory.hh"

#include <limits>

#include "common/cli_parse.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "enc/address_pad.hh"
#include "enc/ble.hh"
#include "enc/counter_mode.hh"
#include "enc/deuce.hh"
#include "enc/dyn_deuce.hh"
#include "enc/invmm.hh"
#include "enc/no_encryption.hh"
#include "enc/per_word_counters.hh"
#include "enc/vcc.hh"

namespace deuce
{

std::unique_ptr<EncryptionScheme>
makeScheme(const std::string &id, const OtpEngine &otp)
{
    if (id == "nodcw") {
        return std::make_unique<NoEncryption>(false);
    }
    if (id == "nofnw") {
        return std::make_unique<NoEncryption>(true);
    }
    if (id == "encr") {
        return std::make_unique<CounterModeEncryption>(otp, false);
    }
    if (id == "encr-fnw") {
        return std::make_unique<CounterModeEncryption>(otp, true);
    }
    if (id == "ble") {
        return std::make_unique<BlockLevelEncryption>(otp, false);
    }
    if (id == "ble-deuce") {
        return std::make_unique<BlockLevelEncryption>(otp, true, 2, 32);
    }
    if (id == "deuce") {
        return std::make_unique<Deuce>(otp);
    }
    if (id == "deuce-fnw") {
        DeuceConfig cfg;
        cfg.withFnw = true;
        return std::make_unique<Deuce>(otp, cfg);
    }
    if (id == "dyndeuce") {
        return std::make_unique<DynDeuce>(otp);
    }
    if (id == "addrpad") {
        return std::make_unique<AddressPadEncryption>(otp);
    }
    if (id == "invmm") {
        return std::make_unique<INvmm>(otp);
    }
    if (id == "perword") {
        return std::make_unique<PerWordCounters>(otp);
    }
    if (id == "vcc") {
        return std::make_unique<Vcc>(otp);
    }
    if (id == "vcc-mlc") {
        VccConfig cfg;
        cfg.costModel = CellTech::MLC2;
        return std::make_unique<Vcc>(otp, cfg);
    }
    if (id.rfind("deuce-", 0) == 0) {
        // deuce-<n>b (word size) or deuce-e<n> (epoch interval); the
        // number is digits only, so junk never runs as the default.
        std::string suffix = id.substr(6);
        constexpr uint64_t kMax = std::numeric_limits<unsigned>::max();
        DeuceConfig cfg;
        if (!suffix.empty() && suffix.back() == 'b') {
            suffix.pop_back();
            if (auto n = parseUnsigned(suffix.c_str(), kMax)) {
                cfg.wordBytes = static_cast<unsigned>(*n);
                return std::make_unique<Deuce>(otp, cfg);
            }
        } else if (!suffix.empty() && suffix.front() == 'e') {
            if (auto n = parseUnsigned(suffix.c_str() + 1, kMax)) {
                cfg.epochInterval = static_cast<unsigned>(*n);
                return std::make_unique<Deuce>(otp, cfg);
            }
        }
    }
    deuce_fatal("unknown scheme id: " + id);
}

std::vector<std::string>
allSchemeIds()
{
    return {"nodcw", "nofnw", "encr", "encr-fnw", "ble",
            "deuce", "dyndeuce", "deuce-fnw", "ble-deuce"};
}

SchemeFactory
schemeFactoryFor(const std::string &id)
{
    // Resolve eagerly so an unknown id fails at spec-construction
    // time on the caller's thread, not inside a worker.
    makeScheme(id, *makeAesOtpEngine(0));
    return [id](const OtpEngine &otp) { return makeScheme(id, otp); };
}

namespace
{

/** FNV-1a, folded through the avalanche mixer. */
uint64_t
hashString(uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h = (h ^ c) * 0x100000001b3ull;
    }
    return splitMix64(h);
}

} // namespace

uint64_t
deriveCellSeed(uint64_t base_seed, const std::string &bench,
               const std::string &scheme)
{
    uint64_t h = splitMix64(base_seed);
    h = hashString(h, bench);
    h = hashString(h, scheme);
    // Keep 0 out of the range: some engines treat 0 as "unkeyed".
    return h != 0 ? h : 0x5ec2e7;
}

} // namespace deuce
