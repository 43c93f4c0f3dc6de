/**
 * @file
 * LineDecommissioner: graceful retirement of lines past ECP capacity.
 *
 * A line whose write was uncorrectable is retired: the logical address
 * is remapped to a fresh line from a spare pool (the memory controller
 * re-issues the write there), and capacity degrades gracefully instead
 * of the device failing outright. Spares themselves wear and can be
 * decommissioned again; the remap table always points at the line
 * currently backing each logical address.
 */

#ifndef DEUCE_FAULT_LINE_DECOMMISSIONER_HH
#define DEUCE_FAULT_LINE_DECOMMISSIONER_HH

#include <cstdint>

#include "common/line_table.hh"

namespace deuce
{

/** Logical-to-spare remap table for retired lines. */
class LineDecommissioner
{
  public:
    /** @param spare_base address of the first spare line */
    explicit LineDecommissioner(uint64_t spare_base = uint64_t{1} << 48);

    /** Line currently backing @p logical (identity when unretired). */
    uint64_t physicalFor(uint64_t logical) const;

    /**
     * Retire the line currently backing @p logical and remap the
     * logical address to the next spare.
     * @return the fresh physical line
     */
    uint64_t decommission(uint64_t logical);

    /** Lines retired so far (= spares consumed). */
    uint64_t decommissionedLines() const { return sparesIssued_; }

    /** Has @p logical ever been remapped? */
    bool isRemapped(uint64_t logical) const;

  private:
    uint64_t spareBase_;
    uint64_t sparesIssued_ = 0;
    LineTable<uint64_t> remap_;
};

} // namespace deuce

#endif // DEUCE_FAULT_LINE_DECOMMISSIONER_HH
