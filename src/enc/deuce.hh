/**
 * @file
 * DEUCE: Dual Counter Encryption (Section 4 of the paper).
 *
 * DEUCE keeps the single per-line write counter of counter-mode
 * encryption but derives two *virtual* counters from it:
 *
 *  - LCTR (leading counter)  = the line counter itself
 *  - TCTR (trailing counter) = LCTR with log2(epoch) LSBs masked off
 *
 * One tracking bit per word records whether the word has been modified
 * since the start of the current epoch. Modified words are encrypted
 * with the pad of LCTR (which is fresh on every write); unmodified
 * words keep the ciphertext they were given at the epoch start (pad of
 * TCTR) and therefore cost zero cell flips. Whenever the counter
 * reaches a multiple of the epoch interval, the full line is
 * re-encrypted and the tracking bits reset.
 *
 * Pad uniqueness (and hence OTP security) is preserved: a word's
 * ciphertext under a given (address, counter) pad is written at most
 * once, because LCTR is fresh per write and a TCTR-encrypted word is
 * never re-written while it stays unmodified.
 *
 * The optional FNW composition ("DEUCE+FNW", Figure 10) passes the
 * DEUCE ciphertext image through Flip-N-Write with its own dedicated
 * flip bits, doubling the tracking storage to 64 bits per line.
 */

#ifndef DEUCE_ENC_DEUCE_HH
#define DEUCE_ENC_DEUCE_HH

#include <array>

#include "common/logging.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"

namespace deuce
{

/**
 * DEUCE's per-word pad choice (Figure 7) — the LCTR pad for modified
 * words, the TCTR pad elsewhere — as one table-driven masked select
 * per limb. BLE+DEUCE shares it: its block-major tracking bits tile
 * the line's words the same way.
 */
class WordSelect
{
  public:
    /** @param word_bits word width: 8, 16, 32 or 64 (fatal else). */
    explicit WordSelect(unsigned word_bits)
    {
        if (word_bits != 8 && word_bits != 16 && word_bits != 32 &&
            word_bits != 64) {
            deuce_fatal("word size must be 1, 2, 4 or 8 bytes");
        }
        wordsPerLimb_ = 64 / word_bits;
        const uint64_t word_ones = word_bits == 64
            ? ~uint64_t{0}
            : (uint64_t{1} << word_bits) - 1;
        for (unsigned sel = 0; sel < (1u << wordsPerLimb_); ++sel) {
            uint64_t mask = 0;
            for (unsigned w = 0; w < wordsPerLimb_; ++w) {
                if ((sel >> w) & 1) {
                    mask |= word_ones << (w * word_bits);
                }
            }
            limbMasks_[sel] = mask;
        }
    }

    /**
     * Per word, the word of @p on where bit w of @p words is set and
     * the word of @p off elsewhere.
     */
    CacheLine
    operator()(uint64_t words, const CacheLine &on,
               const CacheLine &off) const
    {
        const uint64_t sel_ones = (uint64_t{1} << wordsPerLimb_) - 1;
        CacheLine out;
        for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
            uint64_t mask =
                limbMasks_[(words >> (l * wordsPerLimb_)) & sel_ones];
            out.limb(l) = (on.limb(l) & mask) | (off.limb(l) & ~mask);
        }
        return out;
    }

  private:
    unsigned wordsPerLimb_;
    /** Limb mask of every word-select pattern within one limb. */
    std::array<uint64_t, 256> limbMasks_{};
};

/** Configuration parameters of a DEUCE instance. */
struct DeuceConfig
{
    /** Tracking granularity in bytes (1, 2, 4 or 8). Paper default 2. */
    unsigned wordBytes = 2;

    /**
     * Epoch interval in writes; must be a power of two (the TCTR is
     * formed by masking LSBs). Paper default 32.
     */
    unsigned epochInterval = 32;

    /** Compose with Flip-N-Write on the ciphertext (DEUCE+FNW). */
    bool withFnw = false;

    /** FNW granularity in bits, when withFnw is set. */
    unsigned fnwRegionBits = 16;
};

/** Dual Counter Encryption. */
class Deuce : public EncryptionScheme
{
  public:
    /**
     * @param otp pad generator (not owned; must outlive this object)
     * @param cfg DEUCE parameters; validated here (fatal on bad config)
     */
    Deuce(const OtpEngine &otp, const DeuceConfig &cfg = DeuceConfig{});

    std::string name() const override;
    unsigned trackingBitsPerLine() const override;

    void install(uint64_t line_addr, const CacheLine &plaintext,
                 StoredLineState &state) const override;

    /** Number of tracked words per line. */
    unsigned numWords() const { return numWords_; }

    /** Width of one tracked word in bits. */
    unsigned wordBits() const { return wordBits_; }

    /** The trailing counter for a given leading counter value. */
    uint64_t
    trailingCounter(uint64_t leading) const
    {
        return leading & ~static_cast<uint64_t>(cfg_.epochInterval - 1);
    }

    /** True iff a write advancing the counter to @p c starts an epoch. */
    bool
    isEpochStart(uint64_t counter) const
    {
        return (counter & (cfg_.epochInterval - 1)) == 0;
    }

    const DeuceConfig &config() const { return cfg_; }

    /** Read pad plan: [LCTR(c), TCTR(c)]; the modified bits pick
     *  each word's pad (Figure 7). */
    unsigned planReadPads(uint64_t line_addr,
                          const StoredLineState &state,
                          LinePadRequest *requests) const override;
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;

    /**
     * Write pad plan: the read plan for the read-back, then [c+1] for
     * the new image. The new image's TCTR pad is not planned: unless
     * the write starts an epoch (full re-encryption, no TCTR pad)
     * c+1 shares c's epoch, so TCTR(c+1) = TCTR(c) is already in
     * hand.
     */
    unsigned planWritePads(uint64_t line_addr,
                           const StoredLineState &state,
                           LinePadRequest *requests) const override;
    WriteResult writeWithPads(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state,
                              const CacheLine *line_pads) const override;

  private:
    friend class DynDeuce;

    /**
     * Build the new logical ciphertext image and updated modified
     * bits for one write; shared by Deuce and DynDeuce. @p pad_lctr
     * is the pad of @p new_counter; @p pad_tctr the pad of its
     * trailing counter, or nullptr iff the write starts an epoch
     * (the TCTR pad is not needed on a full re-encryption).
     */
    void encryptStep(const CacheLine &plaintext,
                     const CacheLine &cur_plain, uint64_t new_counter,
                     uint64_t old_modified, const CacheLine &pad_lctr,
                     const CacheLine *pad_tctr, CacheLine &cipher_out,
                     uint64_t &modified_out) const;

    DeuceConfig cfg_;
    /** Validates the word size, so it initializes first. */
    WordSelect select_;
    unsigned wordBits_;
    unsigned numWords_;
};

} // namespace deuce

#endif // DEUCE_ENC_DEUCE_HH
