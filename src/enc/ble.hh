/**
 * @file
 * Block-Level Encryption (Kong & Zhou, DSN-2010; Section 7.1).
 *
 * BLE provisions one counter per 16-byte AES block (four per 64-byte
 * line) and re-encrypts only the blocks a write actually modifies,
 * incrementing only their counters. This reduces the write overhead of
 * encryption from the full line to the touched blocks, but still
 * rewrites 16 bytes when a single bit in a block changes.
 *
 * The composition BLE+DEUCE (Figure 18) applies DEUCE inside each
 * block: per-block LCTR/TCTR derived from the block counter, and
 * modified-word tracking bits at DEUCE granularity, so only the
 * modified words of a modified block are re-encrypted.
 */

#ifndef DEUCE_ENC_BLE_HH
#define DEUCE_ENC_BLE_HH

#include "enc/deuce.hh"

namespace deuce
{

/** Block-level counter-mode encryption, optionally fused with DEUCE. */
class BlockLevelEncryption : public EncryptionScheme
{
  public:
    /** Number of AES blocks per line. */
    static constexpr unsigned kBlocks = 4;
    /** Bits per AES block. */
    static constexpr unsigned kBlockBits = CacheLine::kBits / kBlocks;

    /**
     * @param otp        pad generator (not owned)
     * @param with_deuce apply DEUCE word-tracking inside each block
     * @param word_bytes DEUCE tracking granularity (when with_deuce)
     * @param epoch      DEUCE epoch interval per block counter
     */
    explicit BlockLevelEncryption(const OtpEngine &otp,
                                  bool with_deuce = false,
                                  unsigned word_bytes = 2,
                                  unsigned epoch = 32);

    std::string name() const override;
    unsigned trackingBitsPerLine() const override;

    /** Read pad plan: a line pad whose block b is at block b's
     *  counter, and for BLE+DEUCE one at its trailing counter. */
    unsigned planReadPads(uint64_t line_addr,
                          const StoredLineState &state,
                          LinePadRequest *requests) const override;
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;

    /** Write pad plan: the read-back only. Its TCTR pad also
     *  serves the write; the dirty blocks' new LCTR pads depend on
     *  the data, so writeWithPads() generates them. */
    unsigned planWritePads(uint64_t line_addr,
                           const StoredLineState &state,
                           LinePadRequest *requests) const override;
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;

    bool usesBlockCounters() const override { return true; }

  private:
    uint64_t
    trailing(uint64_t counter) const
    {
        return counter & ~static_cast<uint64_t>(epoch_ - 1);
    }

    bool
    isEpochStart(uint64_t counter) const
    {
        return (counter & (epoch_ - 1)) == 0;
    }

    bool withDeuce_;
    /** DEUCE's word choice inside each block (validates the word
     *  size, so it initializes first). */
    WordSelect select_;
    unsigned wordBytes_;
    unsigned wordBits_;
    unsigned wordsPerBlock_;
    unsigned epoch_;
};

} // namespace deuce

#endif // DEUCE_ENC_BLE_HH
