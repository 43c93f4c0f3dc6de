/**
 * @file
 * PerWordCounters implementation.
 */

#include "enc/per_word_counters.hh"

#include <bit>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

PerWordCounters::PerWordCounters(const OtpEngine &otp,
                                 unsigned word_bytes,
                                 unsigned counter_bits)
    : otp_(otp), wordBytes_(word_bytes), counterBits_(counter_bits)
{
    if (word_bytes != 1 && word_bytes != 2 && word_bytes != 4 &&
        word_bytes != 8) {
        deuce_fatal("per-word counters: word size must be 1/2/4/8");
    }
    if (counter_bits < 2 || counter_bits > 16) {
        deuce_fatal("per-word counters: counter width must be 2..16");
    }
    wordBits_ = word_bytes * 8;
    numWords_ = CacheLine::kBits / wordBits_;
    counterMax_ = (uint64_t{1} << counterBits_) - 1;
}

std::string
PerWordCounters::name() const
{
    std::ostringstream os;
    os << "PerWordCtr-" << wordBytes_ << "B-c" << counterBits_;
    return os.str();
}

unsigned
PerWordCounters::trackingBitsPerLine() const
{
    return numWords_ * counterBits_;
}

uint64_t
PerWordCounters::wordPad(uint64_t line_addr, uint64_t line_epoch,
                         unsigned word, uint64_t word_counter) const
{
    uint64_t bits;
    wordPads(line_addr, line_epoch, &word, &word_counter, &bits, 1);
    return bits;
}

void
PerWordCounters::wordPads(uint64_t line_addr, uint64_t line_epoch,
                          const unsigned *words,
                          const uint64_t *word_ctrs, uint64_t *pads,
                          unsigned n) const
{
    // Idealised: derive an independent pad per (word, counter) by
    // keying the word's AES block with the word's own counter value
    // plus the line's re-key epoch, then slicing the word's bits. The
    // paper's point stands regardless: the storage is the problem.
    PadRequest requests[64];
    AesBlock blocks[64];
    while (n > 0) {
        unsigned c = n < 64 ? n : 64;
        for (unsigned i = 0; i < c; ++i) {
            requests[i] = PadRequest{
                (line_epoch << 20) ^ (word_ctrs[i] << 6) ^ words[i],
                (words[i] * wordBits_) / 128};
        }
        otp_.padForBlocks(line_addr, requests, blocks, c);
        for (unsigned i = 0; i < c; ++i) {
            unsigned offset_bits = (words[i] * wordBits_) % 128;
            uint64_t bits = 0;
            for (unsigned b = 0; b < wordBytes_; ++b) {
                bits |= static_cast<uint64_t>(
                            blocks[i][offset_bits / 8 + b])
                        << (8 * b);
            }
            pads[i] = bits;
        }
        words += c;
        word_ctrs += c;
        pads += c;
        n -= c;
    }
}

void
PerWordCounters::install(uint64_t line_addr, const CacheLine &plaintext,
                         StoredLineState &state) const
{
    state = StoredLineState{};
    counters_[line_addr] = WordCounters{};
    unsigned words[64];
    uint64_t zero_ctrs[64] = {};
    uint64_t pads[64];
    for (unsigned w = 0; w < numWords_; ++w) {
        words[w] = w;
    }
    wordPads(line_addr, 0, words, zero_ctrs, pads, numWords_);
    for (unsigned w = 0; w < numWords_; ++w) {
        state.data.setField(w * wordBits_, wordBits_,
                            plaintext.field(w * wordBits_, wordBits_) ^
                                pads[w]);
    }
}

WriteResult
PerWordCounters::writeWithPads(uint64_t line_addr,
                               const CacheLine &plaintext,
                               StoredLineState &state,
                               const CacheLine * /* line_pads */) const
{
    StoredLineState before = state;
    WordCounters &ctrs = counters_[line_addr];
    CacheLine cur = read(line_addr, state);

    // First pass: does any modified word overflow its counter?
    const uint64_t dirty_words =
        lineKernels().wordDiffMask(plaintext, cur, wordBits_);
    bool overflow = false;
    for (uint64_t bits = dirty_words; bits; bits &= bits - 1) {
        unsigned w = static_cast<unsigned>(__builtin_ctzll(bits));
        if (ctrs.value[w] >= counterMax_) {
            overflow = true;
            break;
        }
    }

    if (overflow) {
        // Re-key: bump the line epoch, reset all word counters, and
        // re-encrypt the whole line (the hidden cost of narrow
        // per-word counters).
        ++overflowRekeys_;
        state.counter += 1; // line epoch
        ctrs = WordCounters{};
        unsigned words[64];
        uint64_t zero_ctrs[64] = {};
        uint64_t pads[64];
        for (unsigned w = 0; w < numWords_; ++w) {
            words[w] = w;
        }
        wordPads(line_addr, state.counter, words, zero_ctrs, pads,
                 numWords_);
        for (unsigned w = 0; w < numWords_; ++w) {
            unsigned lsb = w * wordBits_;
            state.data.setField(lsb, wordBits_,
                                plaintext.field(lsb, wordBits_) ^
                                    pads[w]);
        }
        return makeWriteResult(before, state);
    }

    // Pass 1: bump the counters of the modified words; pass 2: fetch
    // their pads as one cipher batch and re-encrypt.
    unsigned counter_flips = 0;
    unsigned mod_words[64] = {};
    uint64_t mod_ctrs[64] = {};
    unsigned n_mod = 0;
    for (uint64_t bits = dirty_words; bits; bits &= bits - 1) {
        unsigned w = static_cast<unsigned>(__builtin_ctzll(bits));
        uint64_t old_ctr = ctrs.value[w];
        uint64_t new_ctr = old_ctr + 1;
        ctrs.value[w] = static_cast<uint16_t>(new_ctr);
        counter_flips += static_cast<unsigned>(
            std::popcount((old_ctr ^ new_ctr) & counterMax_));
        mod_words[n_mod] = w;
        mod_ctrs[n_mod] = new_ctr;
        ++n_mod;
    }
    uint64_t pads[64];
    wordPads(line_addr, state.counter, mod_words, mod_ctrs, pads,
             n_mod);
    for (unsigned i = 0; i < n_mod; ++i) {
        unsigned lsb = mod_words[i] * wordBits_;
        state.data.setField(lsb, wordBits_,
                            plaintext.field(lsb, wordBits_) ^
                                pads[i]);
    }

    WriteResult r = makeWriteResult(before, state);
    // The per-word counter bits are metadata writes too; the central
    // accounting cannot see the scheme-held array, so charge them
    // explicitly.
    r.metaFlips += counter_flips;
    return r;
}

CacheLine
PerWordCounters::read(uint64_t line_addr,
                      const StoredLineState &state) const
{
    const WordCounters &ctrs = counters_[line_addr];
    CacheLine plain;
    unsigned words[64];
    uint64_t word_ctrs[64];
    uint64_t pads[64];
    for (unsigned w = 0; w < numWords_; ++w) {
        words[w] = w;
        word_ctrs[w] = ctrs.value[w];
    }
    wordPads(line_addr, state.counter, words, word_ctrs, pads,
             numWords_);
    for (unsigned w = 0; w < numWords_; ++w) {
        unsigned lsb = w * wordBits_;
        plain.setField(lsb, wordBits_,
                       state.data.field(lsb, wordBits_) ^ pads[w]);
    }
    return plain;
}

} // namespace deuce
