/**
 * @file
 * Baseline counter-mode encryption at line granularity (Section 2.4):
 * one 28-bit counter per line, incremented on every write; the whole
 * line is XORed with a fresh OTP each time. Optionally composed with
 * Flip-N-Write on the stored ciphertext ("Encr+FNW" in the figures).
 */

#ifndef DEUCE_ENC_COUNTER_MODE_HH
#define DEUCE_ENC_COUNTER_MODE_HH

#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"

namespace deuce
{

/** Full-line counter-mode encryption, the paper's "Encr" baseline. */
class CounterModeEncryption : public EncryptionScheme
{
  public:
    /**
     * @param otp             pad generator (not owned; must outlive us)
     * @param use_fnw         apply Flip-N-Write to the ciphertext
     * @param fnw_region_bits FNW granularity in bits (default 16)
     */
    explicit CounterModeEncryption(const OtpEngine &otp,
                                   bool use_fnw = false,
                                   unsigned fnw_region_bits = 16);

    std::string name() const override;
    unsigned trackingBitsPerLine() const override;

    /** A read needs one line pad at the counter. */
    unsigned planReadPads(uint64_t line_addr,
                          const StoredLineState &state,
                          LinePadRequest *requests) const override;
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;

    /** A write needs one line pad at counter+1. */
    unsigned planWritePads(uint64_t line_addr,
                           const StoredLineState &state,
                           LinePadRequest *requests) const override;
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;

  private:
    bool useFnw_;
    unsigned fnwRegionBits_;
};

} // namespace deuce

#endif // DEUCE_ENC_COUNTER_MODE_HH
