/**
 * @file
 * The "straightforward" fine-grained design the DEUCE paper rejects
 * (Section 4): one dedicated counter per word, so only modified words
 * are re-encrypted and no epoch machinery is needed.
 *
 * The paper dismisses it for two reasons, both of which this
 * implementation makes measurable:
 *
 *  1. Storage: a full counter per word is prohibitive. With 32 words
 *     per line and even miserly 8-bit counters, that is 256 bits of
 *     metadata per line — 8x DEUCE's 32 bits (trackingBitsPerLine()
 *     reports it, and the ablation bench prints the comparison).
 *  2. Cipher granularity: AES's block is 16 bytes, so a real per-word
 *     design cannot generate an independent pad per 2-byte word from
 *     one AES invocation. We model the idealised behaviour by slicing
 *     a per-(word, counter) pad out of a full-line pad keyed by the
 *     word's own counter — generous to the rejected design (it gets
 *     DEUCE-or-better flips), which makes DEUCE's win on storage the
 *     honest headline.
 *
 * Narrow per-word counters also overflow quickly; on overflow the
 * word's counter domain is exhausted and the whole line must re-key
 * (modelled as a full re-encryption bumping the line counter, whose
 * value is folded into every word's pad).
 */

#ifndef DEUCE_ENC_PER_WORD_COUNTERS_HH
#define DEUCE_ENC_PER_WORD_COUNTERS_HH

#include <array>
#include <cstdint>
#include <map>

#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"

namespace deuce
{

/** Idealised per-word-counter encryption (the rejected strawman). */
class PerWordCounters : public EncryptionScheme
{
  public:
    /**
     * @param otp          pad generator (not owned)
     * @param word_bytes   word granularity (default 2, like DEUCE)
     * @param counter_bits width of each per-word counter
     */
    explicit PerWordCounters(const OtpEngine &otp,
                             unsigned word_bytes = 2,
                             unsigned counter_bits = 8);

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

    /** Full re-keys forced by per-word counter overflow so far. */
    uint64_t overflowRekeys() const { return overflowRekeys_; }

  private:
    /** Pad for one word under (line counter epoch, word counter). */
    uint64_t wordPad(uint64_t line_addr, uint64_t line_epoch,
                     unsigned word, uint64_t word_counter) const;

    /**
     * Pads for @p n words of a line in one cipher batch (a single
     * padForBlocks() call; pads[i] is for word words[i] at counter
     * word_ctrs[i]). The batched form matters here more than
     * anywhere: a full-line operation needs one AES block per word —
     * up to 64 of them.
     */
    void wordPads(uint64_t line_addr, uint64_t line_epoch,
                  const unsigned *words, const uint64_t *word_ctrs,
                  uint64_t *pads, unsigned n) const;

    /** The per-word counters live beside the line (modelled here as
     *  scheme-held state keyed by address; they are architectural
     *  metadata, reported via trackingBitsPerLine). */
    struct WordCounters
    {
        std::array<uint16_t, 64> value{};
    };

    const OtpEngine &otp_;
    unsigned wordBytes_;
    unsigned wordBits_;
    unsigned numWords_;
    unsigned counterBits_;
    uint64_t counterMax_;
    mutable std::map<uint64_t, WordCounters> counters_;
    mutable uint64_t overflowRekeys_ = 0;
};

} // namespace deuce

#endif // DEUCE_ENC_PER_WORD_COUNTERS_HH
