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

#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"

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

    void install(uint64_t line_addr, const CacheLine &plaintext,
                 StoredLineState &state) const override;
    /** Pads depend on the data: none planned, generated here. */
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;
    CacheLine read(uint64_t line_addr,
                   const StoredLineState &state) const override;

    bool usesBlockCounters() const override { return true; }

  private:
    /**
     * Pads for a set of blocks of one line in a single cipher batch
     * (one padForBlocks() call, so the pipelined backends keep all
     * the AES blocks in flight together).
     *
     * @param lctr_mask bitmask of blocks to pad; lctr_pads[b] is
     *                  written for blocks in the mask
     * @param lctr      per-block counters (indexed by block)
     * @param tctr_mask blocks that also need the trailing-counter
     *                  pad (DEUCE composition; subset of lctr_mask);
     *                  tctr_pads[b] written for blocks in the mask
     */
    void pads(uint64_t line_addr, unsigned lctr_mask,
              const uint64_t lctr[kBlocks], unsigned tctr_mask,
              AesBlock lctr_pads[kBlocks],
              AesBlock tctr_pads[kBlocks]) const;

    /** XOR a block region of the line with a 128-bit pad. */
    static void xorBlock(CacheLine &line, unsigned block,
                         const AesBlock &pad);

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

    const OtpEngine &otp_;
    bool withDeuce_;
    unsigned wordBytes_;
    unsigned wordBits_;
    unsigned wordsPerBlock_;
    unsigned epoch_;
};

} // namespace deuce

#endif // DEUCE_ENC_BLE_HH
