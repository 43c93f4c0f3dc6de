/**
 * @file
 * TenantScheme implementation.
 */

#include "serve/tenant_scheme.hh"

#include "common/logging.hh"
#include "enc/scheme_factory.hh"

namespace deuce
{
namespace serve
{

TenantScheme::TenantScheme(const TenantKeyTable &keys,
                           const std::string &scheme_id,
                           unsigned tenant_addr_bits)
    : EncryptionScheme(nullptr), addrBits_(tenant_addr_bits),
      localMask_((uint64_t{1} << tenant_addr_bits) - 1)
{
    deuce_assert(tenant_addr_bits >= 1 && tenant_addr_bits < 48);
    schemes_.reserve(keys.tenants());
    for (unsigned t = 0; t < keys.tenants(); ++t) {
        schemes_.push_back(makeScheme(scheme_id, keys.engine(t)));
    }
}

const EncryptionScheme &
TenantScheme::tenantScheme(unsigned tenant) const
{
    deuce_assert(tenant < schemes_.size());
    return *schemes_[tenant];
}

std::string
TenantScheme::name() const
{
    return schemes_[0]->name() + "/" +
           std::to_string(schemes_.size()) + "T";
}

unsigned
TenantScheme::trackingBitsPerLine() const
{
    return schemes_[0]->trackingBitsPerLine();
}

void
TenantScheme::install(uint64_t line_addr, const CacheLine &plaintext,
                      StoredLineState &state) const
{
    tenantScheme(tenantOf(line_addr))
        .install(localOf(line_addr), plaintext, state);
}

unsigned
TenantScheme::liftPlan(unsigned tenant, LinePadRequest *requests,
                       unsigned lines) const
{
    // The lifted requests let one pad stream carry a burst that
    // interleaves tenants.
    for (unsigned i = 0; i < lines * 4; ++i) {
        requests[i].lineAddr =
            globalAddr(tenant, requests[i].lineAddr, addrBits_);
    }
    return lines;
}

unsigned
TenantScheme::planReadPads(uint64_t line_addr,
                           const StoredLineState &state,
                           LinePadRequest *requests) const
{
    unsigned tenant = tenantOf(line_addr);
    return liftPlan(tenant, requests,
                    tenantScheme(tenant).planReadPads(localOf(line_addr),
                                                      state, requests));
}

CacheLine
TenantScheme::readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const
{
    return tenantScheme(tenantOf(line_addr))
        .readWithPads(localOf(line_addr), state, line_pads);
}

unsigned
TenantScheme::planWritePads(uint64_t line_addr,
                            const StoredLineState &state,
                            LinePadRequest *requests) const
{
    unsigned tenant = tenantOf(line_addr);
    return liftPlan(tenant, requests,
                    tenantScheme(tenant).planWritePads(localOf(line_addr),
                                                       state, requests));
}

void
TenantScheme::generatePads(const LinePadRequest *requests,
                           AesBlock *pads, unsigned n) const
{
    unsigned i = 0;
    while (i < n) {
        unsigned tenant = tenantOf(requests[i].lineAddr);
        unsigned j = i + 1;
        while (j < n && tenantOf(requests[j].lineAddr) == tenant) {
            ++j;
        }
        // Rewrite the run to local addresses in stack-sized chunks
        // (the engine chunks its nonce assembly anyway, so splitting
        // a run costs nothing but keeps this allocation-free).
        constexpr unsigned kChunk = 256;
        LinePadRequest local[kChunk];
        while (i < j) {
            unsigned c = j - i < kChunk ? j - i : kChunk;
            for (unsigned k = 0; k < c; ++k) {
                local[k] = requests[i + k];
                local[k].lineAddr = localOf(local[k].lineAddr);
            }
            tenantScheme(tenant).generatePads(local, pads + i, c);
            i += c;
        }
    }
}

WriteResult
TenantScheme::writeWithPads(uint64_t line_addr,
                            const CacheLine &plaintext,
                            StoredLineState &state,
                            const CacheLine *line_pads) const
{
    return tenantScheme(tenantOf(line_addr))
        .writeWithPads(localOf(line_addr), plaintext, state, line_pads);
}

} // namespace serve
} // namespace deuce
