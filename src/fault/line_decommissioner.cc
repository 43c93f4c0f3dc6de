/**
 * @file
 * LineDecommissioner implementation.
 */

#include "fault/line_decommissioner.hh"

namespace deuce
{

LineDecommissioner::LineDecommissioner(uint64_t spare_base)
    : spareBase_(spare_base)
{}

uint64_t
LineDecommissioner::physicalFor(uint64_t logical) const
{
    const uint64_t *spare = remap_.find(logical);
    return spare ? *spare : logical;
}

uint64_t
LineDecommissioner::decommission(uint64_t logical)
{
    uint64_t spare = spareBase_ + sparesIssued_++;
    remap_[logical] = spare;
    return spare;
}

bool
LineDecommissioner::isRemapped(uint64_t logical) const
{
    return remap_.contains(logical);
}

} // namespace deuce
