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
    : EncryptionScheme(&otp), wordBytes_(word_bytes),
      counterBits_(counter_bits)
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
    allWords_ = numWords_ == 64 ? ~uint64_t{0}
                                : (uint64_t{1} << numWords_) - 1;
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

PadRequest
PerWordCounters::wordRequest(uint64_t line_epoch, unsigned word,
                             uint64_t word_counter) const
{
    // Idealised: derive an independent pad per (word, counter) by
    // keying the word's AES block with the word's own counter value
    // plus the line's re-key epoch, then slicing the word's bits. The
    // paper's point stands regardless: the storage is the problem.
    return PadRequest{(line_epoch << 20) ^ (word_counter << 6) ^ word,
                      (word * wordBits_) / 128};
}

void
PerWordCounters::encryptWords(uint64_t line_addr, uint64_t line_epoch,
                              uint64_t words, const WordCounters &ctrs,
                              const CacheLine &plaintext,
                              CacheLine &data) const
{
    PadRequest requests[64];
    unsigned index[64];
    unsigned n = 0;
    for (uint64_t bits = words; bits; bits &= bits - 1) {
        unsigned w = static_cast<unsigned>(__builtin_ctzll(bits));
        index[n] = w;
        requests[n++] = wordRequest(line_epoch, w, ctrs.value[w]);
    }
    if (n == 0) {
        return;
    }
    AesBlock blocks[64];
    otp().padForBlocks(line_addr, requests, blocks, n);
    for (unsigned i = 0; i < n; ++i) {
        unsigned lsb = index[i] * wordBits_;
        uint64_t pad = 0;
        for (unsigned b = 0; b < wordBytes_; ++b) {
            pad |= static_cast<uint64_t>(blocks[i][(lsb % 128) / 8 + b])
                   << (8 * b);
        }
        data.setField(lsb, wordBits_,
                      plaintext.field(lsb, wordBits_) ^ pad);
    }
}

void
PerWordCounters::install(uint64_t line_addr, const CacheLine &plaintext,
                         StoredLineState &state) const
{
    state = StoredLineState{};
    const WordCounters &ctrs = counters_[line_addr] = WordCounters{};
    encryptWords(line_addr, 0, allWords_, ctrs, plaintext, state.data);
}

WriteResult
PerWordCounters::writeWithPads(uint64_t line_addr,
                               const CacheLine &plaintext,
                               StoredLineState &state,
                               const CacheLine *line_pads) const
{
    StoredLineState before = state;
    WordCounters &ctrs = counters_[line_addr];
    CacheLine cur = readWithPads(line_addr, state, line_pads);

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
        encryptWords(line_addr, state.counter, allWords_, ctrs, plaintext,
                     state.data);
        return makeWriteResult(before, state);
    }

    // Bump the counters of the modified words, then re-encrypt them
    // under their pads as one cipher batch.
    unsigned counter_flips = 0;
    for (uint64_t bits = dirty_words; bits; bits &= bits - 1) {
        unsigned w = static_cast<unsigned>(__builtin_ctzll(bits));
        uint64_t old_ctr = ctrs.value[w];
        ctrs.value[w] = static_cast<uint16_t>(old_ctr + 1);
        counter_flips += static_cast<unsigned>(
            std::popcount((old_ctr ^ (old_ctr + 1)) & counterMax_));
    }
    encryptWords(line_addr, state.counter, dirty_words, ctrs, plaintext,
                 state.data);

    WriteResult r = makeWriteResult(before, state);
    // The per-word counter bits are metadata writes too; the central
    // accounting cannot see the scheme-held array, so charge them
    // explicitly.
    r.metaFlips += counter_flips;
    return r;
}

unsigned
PerWordCounters::planReadPads(uint64_t line_addr,
                              const StoredLineState &state,
                              LinePadRequest *requests) const
{
    const WordCounters &ctrs = counters_[line_addr];
    for (unsigned w = 0; w < numWords_; ++w) {
        PadRequest r = wordRequest(state.counter, w, ctrs.value[w]);
        requests[w] = LinePadRequest{line_addr, r.counter, r.block};
    }
    return numWords_ / 4;
}

CacheLine
PerWordCounters::readWithPads(uint64_t, const StoredLineState &state,
                              const CacheLine *line_pads) const
{
    // Word w's pad is its bits' slice of its block, which is block
    // w % 4 of line pad w / 4.
    CacheLine plain;
    for (unsigned w = 0; w < numWords_; ++w) {
        unsigned lsb = w * wordBits_;
        uint64_t pad = line_pads[w / 4].field(
            (w % 4) * 128 + lsb % 128, wordBits_);
        plain.setField(lsb, wordBits_,
                       state.data.field(lsb, wordBits_) ^ pad);
    }
    return plain;
}

unsigned
PerWordCounters::planWritePads(uint64_t line_addr,
                               const StoredLineState &state,
                               LinePadRequest *requests) const
{
    return planReadPads(line_addr, state, requests);
}

} // namespace deuce
