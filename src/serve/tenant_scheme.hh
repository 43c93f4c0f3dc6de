/**
 * @file
 * TenantScheme: an EncryptionScheme that routes each line to a
 * per-tenant inner scheme keyed by that tenant's OtpEngine domain.
 *
 * The serving core namespaces tenant-local line addresses into one
 * global line-address space: global = (tenant << tenantAddrBits) |
 * local. A TenantScheme built over a TenantKeyTable dispatches
 * install/write/read on the tenant field of the global address and
 * hands the inner scheme the *local* address, so two tenants writing
 * the same local line with the same plaintext still store unrelated
 * ciphertext (different key domain, same nonce coordinates).
 *
 * Inner schemes are constructed per TenantScheme instance; the
 * serving core builds one TenantScheme per shard, so schemes with
 * non-atomic internal bookkeeping (invmm, perword) stay
 * single-threaded even though the key table is shared.
 */

#ifndef DEUCE_SERVE_TENANT_SCHEME_HH
#define DEUCE_SERVE_TENANT_SCHEME_HH

#include <memory>
#include <string>
#include <vector>

#include "crypto/key_domain.hh"
#include "enc/scheme.hh"

namespace deuce
{
namespace serve
{

/** Multi-tenant dispatch over per-tenant key-domain schemes. */
class TenantScheme final : public EncryptionScheme
{
  public:
    /**
     * @param keys             tenant key domains (not owned; must
     *                         outlive this scheme)
     * @param scheme_id        inner scheme identifier
     *                         (enc/scheme_factory.hh)
     * @param tenant_addr_bits width of the tenant-local address field
     *                         in a global address
     */
    TenantScheme(const TenantKeyTable &keys,
                 const std::string &scheme_id,
                 unsigned tenant_addr_bits);

    /** Compose a global address from (tenant, local). */
    static uint64_t
    globalAddr(unsigned tenant, uint64_t local, unsigned addr_bits)
    {
        return (static_cast<uint64_t>(tenant) << addr_bits) | local;
    }

    /** Tenant field of a global address. */
    unsigned
    tenantOf(uint64_t addr) const
    {
        return static_cast<unsigned>(addr >> addrBits_);
    }

    /** Tenant-local part of a global address. */
    uint64_t localOf(uint64_t addr) const { return addr & localMask_; }

    /** The inner scheme serving tenant @p tenant. */
    const EncryptionScheme &tenantScheme(unsigned tenant) const;

    std::string name() const override;
    unsigned trackingBitsPerLine() const override;

    void install(uint64_t line_addr, const CacheLine &plaintext,
                 StoredLineState &state) const override;

    /**
     * Reads and writes pass through to the inner scheme's plan and
     * pads. Plans carry global addresses (so one burst may mix
     * tenants); generatePads() splits the request stream into
     * consecutive same-tenant runs and hands each run — rewritten to
     * tenant-local addresses — to that tenant's inner scheme, which
     * generates through its own key domain's engine.
     */
    unsigned planReadPads(uint64_t line_addr,
                          const StoredLineState &state,
                          LinePadRequest *requests) const override;
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;
    unsigned planWritePads(uint64_t line_addr,
                           const StoredLineState &state,
                           LinePadRequest *requests) const override;
    void generatePads(const LinePadRequest *requests, AesBlock *pads,
                      unsigned n) const override;
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;

  private:
    /** Lift @p lines line pads @p tenant's inner scheme planned at
     *  local addresses to global ones. */
    unsigned liftPlan(unsigned tenant, LinePadRequest *requests,
                      unsigned lines) const;

    std::vector<std::unique_ptr<EncryptionScheme>> schemes_;
    unsigned addrBits_;
    uint64_t localMask_;
};

} // namespace serve
} // namespace deuce

#endif // DEUCE_SERVE_TENANT_SCHEME_HH
