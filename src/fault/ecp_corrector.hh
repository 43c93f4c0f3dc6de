/**
 * @file
 * EcpCorrector: Error-Correcting Pointers (Schechter et al.,
 * ISCA-2010) for stuck-at cells.
 *
 * ECP-n provisions each line with n (pointer, replacement cell) pairs.
 * When a write fails verification on a stuck cell, an entry is
 * allocated to that cell permanently; subsequent writes steer the
 * cell's bit into the replacement cell, so a corrected cell never
 * faults again. A write whose failed cells cannot all be covered is
 * uncorrectable — the line is past saving and must be decommissioned.
 *
 * Replacement cells are modeled as perfect (they are few, can be
 * provisioned from a stronger array, and their wear is second-order).
 */

#ifndef DEUCE_FAULT_ECP_CORRECTOR_HH
#define DEUCE_FAULT_ECP_CORRECTOR_HH

#include <cstdint>

#include "common/cache_line.hh"
#include "common/line_table.hh"

namespace deuce
{

/** Per-line ECP entry allocation and correctability classification. */
class EcpCorrector
{
  public:
    /** @param entries ECP entries per line (0 = no correction) */
    explicit EcpCorrector(unsigned entries);

    /** Cells of @p line already steered into replacement cells. */
    CacheLine remapped(uint64_t line) const;

    /**
     * Allocate entries for every cell in @p cells (a mask of newly
     * failing cells, none of which may already be remapped).
     * @return true if capacity sufficed (the write is corrected);
     *         false if the line is past ECP capacity (uncorrectable —
     *         no entries are consumed, the caller decommissions)
     */
    bool allocate(uint64_t line, const CacheLine &cells);

    /** Entries in use on @p line. */
    unsigned entriesUsed(uint64_t line) const;

    /** Entries in use across all lines. */
    uint64_t totalEntriesUsed() const { return totalUsed_; }

    /** Per-line capacity this corrector was built with. */
    unsigned capacity() const { return entries_; }

    /** Release a decommissioned line's entries. */
    void retire(uint64_t line);

  private:
    unsigned entries_;
    LineTable<CacheLine> remap_;
    uint64_t totalUsed_ = 0;
};

} // namespace deuce

#endif // DEUCE_FAULT_ECP_CORRECTOR_HH
