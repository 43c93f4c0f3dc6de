/**
 * @file
 * EcpCorrector implementation.
 */

#include "fault/ecp_corrector.hh"

#include "common/logging.hh"

namespace deuce
{

EcpCorrector::EcpCorrector(unsigned entries) : entries_(entries) {}

CacheLine
EcpCorrector::remapped(uint64_t line) const
{
    const CacheLine *cells = remap_.find(line);
    return cells ? *cells : CacheLine{};
}

bool
EcpCorrector::allocate(uint64_t line, const CacheLine &cells)
{
    unsigned wanted = cells.popcount();
    if (wanted == 0) {
        return true;
    }
    CacheLine &current = remap_[line];
    for (unsigned limb = 0; limb < CacheLine::kLimbs; ++limb) {
        deuce_assert((current.limb(limb) & cells.limb(limb)) == 0);
    }
    if (current.popcount() + wanted > entries_) {
        return false;
    }
    for (unsigned limb = 0; limb < CacheLine::kLimbs; ++limb) {
        current.limb(limb) |= cells.limb(limb);
    }
    totalUsed_ += wanted;
    return true;
}

unsigned
EcpCorrector::entriesUsed(uint64_t line) const
{
    const CacheLine *cells = remap_.find(line);
    return cells ? cells->popcount() : 0u;
}

void
EcpCorrector::retire(uint64_t line)
{
    if (const CacheLine *cells = remap_.find(line)) {
        totalUsed_ -= cells->popcount();
        remap_.erase(line);
    }
}

} // namespace deuce
