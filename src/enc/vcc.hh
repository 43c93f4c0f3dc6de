/**
 * @file
 * VCC: Virtual Coset Coding (Longofono et al., arXiv 2112.01658).
 *
 * VCC keeps DEUCE's dual-counter partial re-encryption structure —
 * per-word modified bits, fresh pads for modified words, epoch-start
 * full re-encryption — but turns the pad of each re-encrypted word
 * into a *choice*: N candidate pads are derived from the same line
 * counter through virtual sub-counters, and the controller picks, per
 * word, the candidate whose resulting ciphertext is cheapest to
 * program over the word's current cell image. Under SLC cost that is
 * minimum Hamming distance; under MLC cost it is the minimum summed
 * per-cell transition energy (pcm/config.hh Mlc2Model), which is
 * where coset selection pays: expensive RESET-path transitions can be
 * dodged entirely by picking a different (equally secure) pad.
 *
 * The per-word candidate indices are data-dependent — revealing them
 * would leak information about the stored image — so, exactly as the
 * paper requires, the selection auxiliary bits are stored *encrypted*
 * under their own one-time pad (a dedicated virtual counter), and are
 * re-randomized on every write. Their flips are part of the scheme's
 * cost and are what keeps DEUCE competitive on SLC: min-of-N Hamming
 * selection saves fewer bit flips than the auxiliary word burns, so
 * DEUCE <= VCC on SLC while VCC < DEUCE on MLC2.
 *
 * Pad uniqueness: leading counter c maps to the virtual counters
 * c*(N+1)+j, j in [0,N) for the candidate pads and j = N for the
 * auxiliary pad — an injective mapping, so every pad the engine emits
 * is still bound to a nonce used at most once.
 */

#ifndef DEUCE_ENC_VCC_HH
#define DEUCE_ENC_VCC_HH

#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"
#include "pcm/config.hh"

namespace deuce
{

/** Configuration parameters of a VCC instance. */
struct VccConfig
{
    /** Tracking granularity in bytes (1, 2, 4 or 8). Default 2. */
    unsigned wordBytes = 2;

    /** Epoch interval in writes; power of two (DEUCE-style TCTR). */
    unsigned epochInterval = 32;

    /**
     * Number of coset candidate pads per word; power of two >= 2.
     * numWords * log2(candidates) selection bits must fit the 64-bit
     * auxiliary word, and 3*candidates + 2 planned line pads must fit
     * kMaxWritePadLines.
     */
    unsigned candidates = 4;

    /**
     * Cell-cost flavor the selector minimizes: SLC = Hamming
     * distance, MLC2 = summed per-cell transition energy of mlc2.
     */
    CellTech costModel = CellTech::SLC;

    /** Transition energies used when costModel == MLC2. */
    Mlc2Model mlc2{};
};

/** Virtual Coset Coding. */
class Vcc : public EncryptionScheme
{
  public:
    /**
     * @param otp pad generator (not owned; must outlive this object)
     * @param cfg VCC parameters; validated here (fatal on bad config)
     */
    Vcc(const OtpEngine &otp, const VccConfig &cfg = VccConfig{});

    std::string name() const override;
    unsigned trackingBitsPerLine() const override;

    void install(uint64_t line_addr, const CacheLine &plaintext,
                 StoredLineState &state) const override;

    /** Number of tracked words per line. */
    unsigned numWords() const { return numWords_; }

    /** Width of one tracked word in bits. */
    unsigned wordBits() const { return wordBits_; }

    /** Selection bits per word (log2 of the candidate count). */
    unsigned selectionBits() const { return selBits_; }

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

    /**
     * Virtual pad counter of candidate @p j (or the auxiliary pad,
     * @p j == candidates) under leading counter @p counter.
     */
    uint64_t
    virtualCounter(uint64_t counter, unsigned j) const
    {
        return counter * (cfg_.candidates + 1) + j;
    }

    /**
     * Program cost of rewriting a word whose cells hold @p old_word
     * with @p new_word, under the configured cost model. Exposed for
     * the brute-force shadow model of the property tests.
     */
    double wordCost(uint64_t old_word, uint64_t new_word) const;

    const VccConfig &config() const { return cfg_; }

    /**
     * Read pad plan: the N candidates of LCTR(c), the N candidates of
     * TCTR(c) and the auxiliary pad of c — the 2N + 1 line pads that
     * decrypt the current contents.
     */
    unsigned planReadPads(uint64_t line_addr, const StoredLineState &state,
                          LinePadRequest *requests) const override;
    CacheLine readWithPads(uint64_t line_addr,
                           const StoredLineState &state,
                           const CacheLine *line_pads) const override;

    /**
     * Write pad plan: the read plan, then the N candidates and the
     * auxiliary pad of c+1 for the new image — 3N + 2 line pads.
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
     * Cheapest candidate for one word by the pinned double costs:
     * index j minimizing wordCost(old stored word, plaintext word ^
     * candidate pad word) under strict <, so equal doubles keep the
     * lowest index. The word sits at bit @p shift of limb @p limb in
     * every candidate pad. Only the tie-breaker of selectFresh().
     */
    unsigned selectCandidate(uint64_t old_word, uint64_t plain_word,
                             const CacheLine *cands, unsigned limb,
                             unsigned shift) const;

    /**
     * Give every word in @p fresh its cheapest candidate: write
     * plaintext ^ pad into @p cipher and the index into @p sel.
     * Costs are exact integers (bit flips, or MLC energy in 0.1 pJ
     * units) computed for all words of a limb at once in word-wide
     * lanes; the lowest-index minimum wins, except that an MLC word
     * whose minimum is shared falls back to selectCandidate(). The
     * result equals selectCandidate() on every word (DESIGN.md §13).
     */
    template <unsigned WordBits, bool Mlc>
    void selectFresh(const CacheLine &plaintext,
                     const CacheLine &old_stored,
                     const CacheLine *cands, uint64_t fresh,
                     CacheLine &cipher, uint64_t &sel) const;

    /**
     * Build the new ciphertext image, modified bits and (plaintext)
     * selection word for one write, given the pre-generated new-image
     * candidate pads. @p old_stored is the current cell image the
     * selector minimizes against.
     */
    void encryptStep(const CacheLine &plaintext,
                     const CacheLine &cur_plain,
                     const CacheLine &old_stored, uint64_t new_counter,
                     uint64_t old_modified, uint64_t old_sel,
                     const CacheLine *new_cands, CacheLine &cipher_out,
                     uint64_t &modified_out, uint64_t &sel_out) const;

    /** Decrypt with explicit pads and plaintext selection word. */
    CacheLine decryptWithPads(const CacheLine &cipher, uint64_t modified,
                              uint64_t sel, const CacheLine *lctr_cands,
                              const CacheLine *tctr_cands) const;

    VccConfig cfg_;
    unsigned wordBits_;
    unsigned numWords_;
    unsigned selBits_;
    uint64_t wordMask_;
    uint64_t allWords_;
    uint64_t auxMask_;

    /** MLC energy of a programmed cell by target level, in 0.1 pJ. */
    uint64_t unitTo0_ = 0;
    uint64_t unitTo3_ = 0;
    uint64_t unitTo12_ = 0;

    /** selectFresh() for this word size and cost model. */
    void (Vcc::*selectFresh_)(const CacheLine &, const CacheLine &,
                              const CacheLine *, uint64_t, CacheLine &,
                              uint64_t &) const;
};

} // namespace deuce

#endif // DEUCE_ENC_VCC_HH
