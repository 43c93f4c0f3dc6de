/**
 * @file
 * CellFaultMap: per-cell endurance budgets and stuck-at transitions.
 *
 * Each data cell of each tracked line samples its endurance (total
 * flips it survives) from a lognormal distribution; the sample is a
 * pure function of (config seed, line, cell position), so the map is
 * reproducible for any execution order. A cell that spends its budget
 * becomes stuck-at the value the killing write left in it — the write
 * that wears a cell out still completes; the fault surfaces on the
 * next write that needs the cell to hold the *other* value
 * (write-verify semantics, as in the ECP paper).
 *
 * No budget can be below budgetFloor(), so a line counts its flips in
 * bit-planes (plane p holds bit p of every cell's count) while every
 * count the planes can hold is below the floor, and samples its
 * budgets only when a count outgrows the planes. From then on the
 * line keeps exact per-cell counts. Outcomes are identical to
 * sampling every budget at first touch (DESIGN.md §14).
 *
 * Only the 512 data cells are modeled; counter/tracking metadata cells
 * are assumed to sit in a separately provisioned (and ECC'd) region,
 * as the hard-error literature does.
 */

#ifndef DEUCE_FAULT_CELL_FAULT_MAP_HH
#define DEUCE_FAULT_CELL_FAULT_MAP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cache_line.hh"
#include "common/line_table.hh"
#include "fault/fault_config.hh"

namespace deuce
{

/** Tracks per-cell wear budgets and stuck-at faults per line. */
class CellFaultMap
{
  public:
    explicit CellFaultMap(const FaultConfig &cfg);

    /** What one write did to a line's cells. */
    struct WriteEffect
    {
        /** Cells that crossed their endurance budget on this write. */
        CacheLine newlyStuck;

        /**
         * Previously stuck cells whose stuck value differs from the
         * target image — the cells this write *fails* on unless ECP
         * covers them.
         */
        CacheLine conflicts;
    };

    /**
     * Charge the cell flips of one write to physical line @p line and
     * evaluate the post-write image against the line's stuck cells.
     *
     * @param line  physical line identity (post-decommission remap)
     * @param flips cell-flip mask in physical bit positions
     * @param image stored image after the write, in physical positions
     */
    WriteEffect recordWrite(uint64_t line, const CacheLine &flips,
                            const CacheLine &image);

    /** Mask of stuck cells of @p line (all-zero if none / untracked). */
    CacheLine stuckMask(uint64_t line) const;

    /** Values the stuck cells of @p line are frozen at. */
    CacheLine stuckValues(uint64_t line) const;

    /** Cells currently stuck across all tracked lines. */
    uint64_t stuckCells() const { return stuckCells_; }

    /** Lines written at least once and not retired since. */
    uint64_t trackedLines() const { return lines_.size(); }

    /** Drop a decommissioned line's state (its cells are retired). */
    void retire(uint64_t line);

    /**
     * The deterministic endurance sample of one cell, in flips.
     * Exposed so tests and capacity planners can inspect the
     * variation model without wearing anything out.
     */
    double enduranceOf(uint64_t line, unsigned cell) const;

    /**
     * A lower bound on every enduranceOf() sample of this
     * configuration, fixed at construction. A cell whose count is
     * below it cannot die, so its budget is never sampled.
     */
    double budgetFloor() const { return floor_; }

  private:
    /**
     * Test seam: seeds a line's counts straight onto the planes, so
     * tests reach the top planes without 2^24+ writes to one cell.
     */
    friend class CellFaultMapTestPeer;

    /**
     * Exact wear of a line whose counts outgrew the planes: only such
     * a line can hold stuck cells.
     */
    struct ExactWear
    {
        /** Flips charged so far, per cell. */
        std::array<uint32_t, CacheLine::kBits> flips{};

        /** Endurance budgets, per cell. */
        std::array<float, CacheLine::kBits> budget{};

        CacheLine stuck;
        CacheLine stuckValue;
    };

    /** Lazily allocated wear state of one line. */
    struct LineState
    {
        /**
         * Flip counts as bit-planes: limb l of plane p holds bit p of
         * the counts of cells 64l..64l+63. Grows one plane at a time,
         * to at most maxPlanes_; empty once exact is set.
         */
        std::vector<CacheLine> planes;

        /** Set when a count outgrew the planes. */
        std::unique_ptr<ExactWear> exact;
    };

    /**
     * Unpack @p state's planes into exact counts and sample its
     * budgets, on the write whose @p carry left the top plane. The
     * counts leave out that write's @p flips, which chargeExact()
     * then charges.
     */
    void toExact(uint64_t line, LineState &state,
                 const CacheLine &flips, const CacheLine &carry) const;

    /** Charge @p flips to an exact line, checking each budget. */
    void chargeExact(ExactWear &wear, const CacheLine &flips,
                     const CacheLine &image, WriteEffect &effect);

    FaultConfig cfg_;
    double muLog_; ///< mean of the underlying normal (mean-preserving)
    double floor_; ///< no budget is below this
    unsigned maxPlanes_; ///< counts below 2^maxPlanes_ cannot kill
    LineTable<LineState> lines_;
    uint64_t stuckCells_ = 0;
};

} // namespace deuce

#endif // DEUCE_FAULT_CELL_FAULT_MAP_HH
