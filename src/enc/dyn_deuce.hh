/**
 * @file
 * DynDEUCE: morphing between DEUCE and Flip-N-Write (Section 4.6).
 *
 * DEUCE loses to plain FNW when a workload modifies most words of a
 * line on every write (e.g. Gems, soplex). DynDEUCE keeps DEUCE's
 * 32 tracking bits but adds a single mode bit per line: in DEUCE mode
 * the bits are modified-word bits; in FNW mode the same storage is
 * repurposed as FNW flip bits over the freshly re-encrypted line.
 *
 * Every epoch starts in DEUCE mode. On each mid-epoch write while in
 * DEUCE mode, the controller computes the exact bit-flip cost of both
 * encodings (Figure 11) and switches to FNW mode for the rest of the
 * epoch if FNW is cheaper. The FNW-to-DEUCE direction only happens at
 * epoch boundaries, because the epoch-start state is lost once the
 * tracking bits are repurposed.
 */

#ifndef DEUCE_ENC_DYN_DEUCE_HH
#define DEUCE_ENC_DYN_DEUCE_HH

#include "enc/deuce.hh"

namespace deuce
{

/** DEUCE with dynamic per-epoch fallback to Flip-N-Write. */
class DynDeuce : public EncryptionScheme
{
  public:
    /**
     * @param otp        pad generator (not owned)
     * @param word_bytes tracking granularity; also the FNW region size
     *                   so the tracking column can be repurposed
     * @param epoch      epoch interval in writes (power of two)
     */
    DynDeuce(const OtpEngine &otp, unsigned word_bytes = 2,
             unsigned epoch = 32);

    std::string name() const override;
    unsigned trackingBitsPerLine() const override;

    /** Read pad plan: DEUCE's [c, tctr(c)] in DEUCE mode, [c] in
     *  FNW mode. */
    unsigned planReadPads(uint64_t line_addr,
                          const StoredLineState &state,
                          LinePadRequest *requests) const override;
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;

    /**
     * Pad plan: epoch starts and FNW-mode writes need one pad [c+1];
     * a mid-epoch DEUCE-mode write races both encodings and needs
     * [c, tctr(c), c+1]. The DEUCE candidate's TCTR pad is tctr(c)
     * (same epoch) and the FNW candidate re-encrypts under the same
     * c+1 pad as the DEUCE candidate's modified words.
     */
    unsigned planWritePads(uint64_t line_addr,
                           const StoredLineState &state,
                           LinePadRequest *requests) const override;
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;

  private:
    /**
     * Build the FNW-mode candidate state for one write, re-encrypted
     * under @p pad, the pad of @p new_counter.
     */
    StoredLineState fnwCandidate(const CacheLine &plaintext,
                                 const StoredLineState &before,
                                 uint64_t new_counter,
                                 const CacheLine &pad) const;

    Deuce deuce_; ///< DEUCE-mode engine (shares counter semantics)
};

} // namespace deuce

#endif // DEUCE_ENC_DYN_DEUCE_HH
