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

    /** Read pad plan: one block per word at its own counter (word w
     *  is block w % 4 of line pad w / 4, its pad a slice of it). */
    unsigned planReadPads(uint64_t line_addr,
                          const StoredLineState &state,
                          LinePadRequest *requests) const override;
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;

    /** Write pad plan: the read-back only; the modified words' new
     *  pads depend on the data, so writeWithPads() generates them. */
    unsigned planWritePads(uint64_t line_addr,
                           const StoredLineState &state,
                           LinePadRequest *requests) const override;
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;

    /** Full re-keys forced by per-word counter overflow so far. */
    uint64_t overflowRekeys() const { return overflowRekeys_; }

  private:
    /** Pad request of word @p word at (line epoch, word counter). */
    PadRequest wordRequest(uint64_t line_epoch, unsigned word,
                           uint64_t word_counter) const;

    /** The per-word counters live beside the line (modelled here as
     *  scheme-held state keyed by address; they are architectural
     *  metadata, reported via trackingBitsPerLine). */
    struct WordCounters
    {
        std::array<uint16_t, 64> value{};
    };

    /** Encrypt the words set in @p words of @p plaintext into
     *  @p data at (line epoch, ctrs), as one padForBlocks() batch. */
    void encryptWords(uint64_t line_addr, uint64_t line_epoch,
                      uint64_t words, const WordCounters &ctrs,
                      const CacheLine &plaintext, CacheLine &data) const;

    unsigned wordBytes_;
    unsigned wordBits_;
    unsigned numWords_;
    uint64_t allWords_;
    unsigned counterBits_;
    uint64_t counterMax_;
    mutable std::map<uint64_t, WordCounters> counters_;
    mutable uint64_t overflowRekeys_ = 0;
};

} // namespace deuce

#endif // DEUCE_ENC_PER_WORD_COUNTERS_HH
