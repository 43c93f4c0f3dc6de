/**
 * @file
 * Unencrypted baseline: data stored in plaintext with data-comparison
 * write, optionally with Flip-N-Write. These are the "NoEncr" bars of
 * Figures 1(b), 5 and 10.
 */

#ifndef DEUCE_ENC_NO_ENCRYPTION_HH
#define DEUCE_ENC_NO_ENCRYPTION_HH

#include "enc/scheme.hh"

namespace deuce
{

/** Plaintext storage; DCW always applies, FNW optional. */
class NoEncryption : public EncryptionScheme
{
  public:
    /**
     * @param use_fnw         store through Flip-N-Write
     * @param fnw_region_bits FNW granularity in bits (default 16)
     */
    explicit NoEncryption(bool use_fnw = false,
                          unsigned fnw_region_bits = 16);

    std::string name() const override;
    unsigned trackingBitsPerLine() const override;

    void install(uint64_t line_addr, const CacheLine &plaintext,
                 StoredLineState &state) const override;
    /** No pads at all: none planned. */
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;
    /** Plaintext reads back without pads: none planned. */
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;

  private:
    bool useFnw_;
    unsigned fnwRegionBits_;
};

} // namespace deuce

#endif // DEUCE_ENC_NO_ENCRYPTION_HH
