/**
 * @file
 * TenantKeyTable: per-tenant AES key domains for multi-tenant secure
 * memory.
 *
 * A shared encrypted NVM serving many tenants must not let one
 * tenant's pads decrypt another tenant's lines: a stolen DIMM (or a
 * persistence-based attack that replays another tenant's ciphertext,
 * Yao & Venkataramani) would otherwise turn a single compromised key
 * into a cross-tenant break. The table derives one independent key
 * seed per tenant from a master seed via a SplitMix64-style
 * finalizer — the same coordinate-keyed derivation the sweep engine
 * uses per cell — and owns one OtpEngine per tenant. Engines are
 * immutable after construction and internally thread-safe (atomic
 * counters only), so any number of shard workers may share them.
 */

#ifndef DEUCE_CRYPTO_KEY_DOMAIN_HH
#define DEUCE_CRYPTO_KEY_DOMAIN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/otp_engine.hh"

namespace deuce
{

/** One OtpEngine key domain per tenant, derived from a master seed. */
class TenantKeyTable
{
  public:
    /**
     * @param master_seed the per-deployment secret seed
     * @param tenants     number of key domains to derive (>= 1)
     * @param make_engine builds each tenant's pad engine from its
     *                    derived key seed
     */
    TenantKeyTable(uint64_t master_seed, unsigned tenants,
                   OtpEngineMaker make_engine = makeAesOtpEngine);

    TenantKeyTable(TenantKeyTable &&) noexcept = default;
    TenantKeyTable &operator=(TenantKeyTable &&) noexcept = default;
    TenantKeyTable(const TenantKeyTable &) = delete;
    TenantKeyTable &operator=(const TenantKeyTable &) = delete;

    /** Number of tenant key domains. */
    unsigned tenants() const
    {
        return static_cast<unsigned>(engines_.size());
    }

    /** Pad engine of tenant @p tenant (asserts in range). */
    const OtpEngine &engine(unsigned tenant) const;

    /** The derived key seed of @p tenant (for tests/diagnostics). */
    uint64_t keySeed(unsigned tenant) const;

    /** Total 128-bit pads generated across all tenant domains. */
    uint64_t padsGenerated() const;

    /**
     * Derive tenant @p tenant's key seed from @p master_seed. Pure
     * function of the coordinates — independent of construction
     * order, thread count, or anything run-time — so two tables with
     * the same master seed hold byte-identical key domains.
     */
    static uint64_t deriveTenantSeed(uint64_t master_seed,
                                     unsigned tenant);

    /**
     * Register each tenant engine's pad counters under
     * "<prefix><t>.otp" (e.g. "serve.tenant0.otp.pads").
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    std::vector<std::unique_ptr<OtpEngine>> engines_;
    std::vector<uint64_t> seeds_;
};

} // namespace deuce

#endif // DEUCE_CRYPTO_KEY_DOMAIN_HH
