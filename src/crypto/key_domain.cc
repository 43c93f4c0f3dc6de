/**
 * @file
 * TenantKeyTable implementation.
 */

#include "crypto/key_domain.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace deuce
{

TenantKeyTable::TenantKeyTable(uint64_t master_seed, unsigned tenants,
                               OtpEngineMaker make_engine)
{
    deuce_assert(tenants >= 1);
    engines_.reserve(tenants);
    seeds_.reserve(tenants);
    for (unsigned t = 0; t < tenants; ++t) {
        uint64_t seed = deriveTenantSeed(master_seed, t);
        seeds_.push_back(seed);
        engines_.push_back(make_engine(seed));
    }
}

const OtpEngine &
TenantKeyTable::engine(unsigned tenant) const
{
    deuce_assert(tenant < engines_.size());
    return *engines_[tenant];
}

uint64_t
TenantKeyTable::keySeed(unsigned tenant) const
{
    deuce_assert(tenant < seeds_.size());
    return seeds_[tenant];
}

uint64_t
TenantKeyTable::padsGenerated() const
{
    uint64_t total = 0;
    for (const auto &engine : engines_) {
        total += engine->padsGenerated();
    }
    return total;
}

uint64_t
TenantKeyTable::deriveTenantSeed(uint64_t master_seed, unsigned tenant)
{
    // Offset by a golden-ratio step per coordinate before mixing so
    // tenant 0 is not the raw master seed; the SplitMix64 finalizer's
    // full avalanche lands adjacent tenant ids on decorrelated seeds.
    return mix64(master_seed +
                 kSplitMixGamma * (static_cast<uint64_t>(tenant) + 1));
}

void
TenantKeyTable::registerStats(obs::StatRegistry &reg,
                              const std::string &prefix) const
{
    for (unsigned t = 0; t < tenants(); ++t) {
        engines_[t]->registerStats(reg,
                                   prefix + std::to_string(t) + ".otp");
    }
}

} // namespace deuce
