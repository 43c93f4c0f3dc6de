/**
 * @file
 * i-NVMM-style incremental encryption (Chhabra & Solihin, ISCA-2011;
 * discussed in Section 7.2 of the DEUCE paper).
 *
 * i-NVMM keeps the hot working set in *plaintext* and encrypts pages
 * only when they turn cold (and everything at power-down). Writes to
 * hot lines therefore cost plain DCW flips — but they also cross the
 * memory bus unencrypted, which is exactly why the DEUCE paper rejects
 * the approach: it defends against the stolen-DIMM attack only, not
 * against bus snooping.
 *
 * This implementation models the scheme at line granularity: a line
 * is hot (plaintext) after a write and is re-encrypted once
 * `coldThreshold` writes to *other* lines pass without touching it
 * (an idleness clock, standing in for i-NVMM's page-access counters).
 * The exposure metric — how much of the written data sits unencrypted
 * — is tracked so the security trade-off is measurable, not just
 * asserted.
 */

#ifndef DEUCE_ENC_INVMM_HH
#define DEUCE_ENC_INVMM_HH

#include <cstdint>
#include <map>
#include <memory>

#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"

namespace deuce
{

/** Incremental (hot-plaintext / cold-encrypted) memory encryption. */
class INvmm : public EncryptionScheme
{
  public:
    /**
     * @param otp            pad generator for cold lines (not owned)
     * @param cold_threshold global writes without touching a line
     *                       before it is re-encrypted
     */
    explicit INvmm(const OtpEngine &otp,
                   uint64_t cold_threshold = 1024);

    std::string name() const override { return "iNVMM"; }
    unsigned trackingBitsPerLine() const override { return 1; }

    /** A demand write stores plaintext: no pads planned. */
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;
    /** A hot line reads without pads, a cold one under [c]. */
    unsigned planReadPads(uint64_t line_addr,
                          const StoredLineState &state,
                          LinePadRequest *requests) const override;
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;

    /**
     * Advance the idleness clock and encrypt lines that turned cold.
     * The caller (memory controller sweep) owns the line states, so
     * they are passed in; returns the bit flips spent on background
     * re-encryption (they consume write bandwidth too).
     *
     * The scheme keeps per-line last-write timestamps internally,
     * keyed by address (mutable: hotness is bookkeeping, not
     * architectural line state).
     */
    unsigned encryptColdLines(
        std::map<uint64_t, StoredLineState *> &lines) const;

    /** Power-down: encrypt everything still hot. */
    unsigned
    powerDown(std::map<uint64_t, StoredLineState *> &lines) const
    {
        clock_ += coldThreshold_; // everything is cold now
        return encryptColdLines(lines);
    }

    /** Fraction of writes that went to the bus in plaintext. */
    double
    plaintextWriteFraction() const
    {
        uint64_t total = plainWrites_ + cipherWrites_;
        return total ? static_cast<double>(plainWrites_) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Is the line currently stored in plaintext? (modeBit proxy) */
    static bool
    isHot(const StoredLineState &state)
    {
        return state.modeBit;
    }

  private:
    uint64_t coldThreshold_;
    mutable uint64_t clock_ = 0;
    mutable std::map<uint64_t, uint64_t> lastWrite_;
    mutable uint64_t plainWrites_ = 0;
    mutable uint64_t cipherWrites_ = 0;
};

} // namespace deuce

#endif // DEUCE_ENC_INVMM_HH
