/**
 * @file
 * VCC implementation.
 */

#include "enc/vcc.hh"

#include <bit>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

namespace
{

/** Largest candidate count the pad-plan arena admits (3N + 2 pads). */
constexpr unsigned kMaxCandidates = (kMaxWritePadLines - 2) / 3;

/** Line pads of the largest read plan (2N + 1). */
constexpr unsigned kMaxReadPadLines = 2 * kMaxCandidates + 1;

/** Append the four block requests of line pad (@p line_addr, @p vctr). */
void
addLinePad(LinePadRequest *requests, unsigned &lines, uint64_t line_addr,
           uint64_t vctr)
{
    for (unsigned block = 0; block < 4; ++block) {
        requests[lines * 4 + block] =
            LinePadRequest{line_addr, vctr, block};
    }
    ++lines;
}

} // namespace

Vcc::Vcc(const OtpEngine &otp, const VccConfig &cfg)
    : otp_(otp), cfg_(cfg)
{
    if (cfg_.wordBytes != 1 && cfg_.wordBytes != 2 &&
        cfg_.wordBytes != 4 && cfg_.wordBytes != 8) {
        deuce_fatal("VCC word size must be 1, 2, 4 or 8 bytes");
    }
    if (cfg_.epochInterval < 2 ||
        !std::has_single_bit(cfg_.epochInterval)) {
        deuce_fatal("VCC epoch interval must be a power of two >= 2");
    }
    if (cfg_.candidates < 2 || !std::has_single_bit(cfg_.candidates)) {
        deuce_fatal("VCC candidate count must be a power of two >= 2");
    }
    if (cfg_.candidates > kMaxCandidates) {
        deuce_fatal("VCC candidate count exceeds the pad-plan arena "
                    "(kMaxWritePadLines)");
    }
    wordBits_ = cfg_.wordBytes * 8;
    numWords_ = CacheLine::kBits / wordBits_;
    selBits_ = static_cast<unsigned>(std::countr_zero(cfg_.candidates));
    deuce_assert(numWords_ <= 64);
    wordMask_ = wordBits_ == 64 ? ~uint64_t{0}
                                : (uint64_t{1} << wordBits_) - 1;
    allWords_ = numWords_ == 64 ? ~uint64_t{0}
                                : (uint64_t{1} << numWords_) - 1;
    if (numWords_ * selBits_ > 64) {
        deuce_fatal("VCC selection bits exceed the 64-bit auxiliary "
                    "word; use fewer candidates or larger words");
    }
    auxMask_ = numWords_ * selBits_ == 64
        ? ~uint64_t{0}
        : (uint64_t{1} << (numWords_ * selBits_)) - 1;
}

std::string
Vcc::name() const
{
    std::ostringstream os;
    os << "VCC-" << cfg_.wordBytes << "B-e" << cfg_.epochInterval << "-n"
       << cfg_.candidates;
    if (cfg_.costModel == CellTech::MLC2) {
        os << "-mlc";
    }
    return os.str();
}

unsigned
Vcc::trackingBitsPerLine() const
{
    // Modified bits plus the encrypted selection auxiliary bits.
    return numWords_ + numWords_ * selBits_;
}

double
Vcc::wordCost(uint64_t old_word, uint64_t new_word) const
{
    if (cfg_.costModel == CellTech::SLC) {
        return static_cast<double>(std::popcount(old_word ^ new_word));
    }
    double cost = 0.0;
    for (unsigned b = 0; b < wordBits_; b += 2) {
        cost += cfg_.mlc2.energyPj[(old_word >> b) & 3]
                                  [(new_word >> b) & 3];
    }
    return cost;
}

unsigned
Vcc::selectCandidate(uint64_t old_word, uint64_t plain_word,
                     const CacheLine *cands, unsigned limb,
                     unsigned shift) const
{
    unsigned best_j = 0;
    double best_cost = 0.0;
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        uint64_t cipher_word =
            plain_word ^ ((cands[j].limb(limb) >> shift) & wordMask_);
        double cost = wordCost(old_word, cipher_word);
        // Strict < keeps ties on the lowest index: deterministic for
        // a given (line, counter, seed).
        if (j == 0 || cost < best_cost) {
            best_cost = cost;
            best_j = j;
        }
    }
    return best_j;
}

void
Vcc::encryptStep(const CacheLine &plaintext, const CacheLine &cur_plain,
                 const CacheLine &old_stored, uint64_t new_counter,
                 uint64_t old_modified, uint64_t old_sel,
                 const CacheLine *new_cands, CacheLine &cipher_out,
                 uint64_t &modified_out, uint64_t &sel_out) const
{
    const uint64_t sel_mask = (uint64_t{1} << selBits_) - 1;

    // Epoch start: full re-encryption with a fresh selection for
    // every word; tracking bits reset. Otherwise DEUCE-style
    // tracking: words changed since the epoch start take a fresh pad
    // (min-cost among the new counter's candidates); unmodified words
    // keep their epoch ciphertext — and their epoch-start selection
    // value — at zero cell flips.
    const bool epoch = isEpochStart(new_counter);
    uint64_t modified = epoch
        ? 0
        : old_modified |
            lineKernels().wordDiffMask(plaintext, cur_plain, wordBits_);
    const uint64_t fresh = epoch ? allWords_ : modified & allWords_;

    // Every word size divides 64, so word w never straddles a limb:
    // it sits in limb lsb / 64 at shift lsb % 64, lsb = w * wordBits.
    CacheLine cipher = old_stored;
    uint64_t sel = old_sel & auxMask_;
    for (uint64_t todo = fresh; todo != 0; todo &= todo - 1) {
        unsigned w = static_cast<unsigned>(std::countr_zero(todo));
        unsigned lsb = w * wordBits_;
        unsigned l = lsb >> 6;
        unsigned shift = lsb & 63;
        uint64_t plain_word = (plaintext.limb(l) >> shift) & wordMask_;
        uint64_t old_word = (old_stored.limb(l) >> shift) & wordMask_;
        unsigned j =
            selectCandidate(old_word, plain_word, new_cands, l, shift);
        uint64_t pad_word = (new_cands[j].limb(l) >> shift) & wordMask_;
        cipher.limb(l) = (cipher.limb(l) & ~(wordMask_ << shift)) |
                         ((plain_word ^ pad_word) << shift);
        unsigned sel_lsb = w * selBits_;
        sel = (sel & ~(sel_mask << sel_lsb)) |
              (static_cast<uint64_t>(j) << sel_lsb);
    }
    cipher_out = cipher;
    modified_out = modified;
    sel_out = sel;
}

CacheLine
Vcc::decryptWithPads(const CacheLine &cipher, uint64_t modified,
                     uint64_t sel, const CacheLine *lctr_cands,
                     const CacheLine *tctr_cands) const
{
    // Gather each word's selected pad into one line, then one XOR.
    const uint64_t sel_mask = (uint64_t{1} << selBits_) - 1;
    CacheLine pad;
    for (unsigned w = 0; w < numWords_; ++w) {
        unsigned lsb = w * wordBits_;
        unsigned j = static_cast<unsigned>((sel >> (w * selBits_)) &
                                           sel_mask);
        const CacheLine *cands =
            ((modified >> w) & 1) ? lctr_cands : tctr_cands;
        pad.limb(lsb >> 6) |=
            cands[j].limb(lsb >> 6) & (wordMask_ << (lsb & 63));
    }
    return cipher ^ pad;
}

void
Vcc::install(uint64_t line_addr, const CacheLine &plaintext,
             StoredLineState &state) const
{
    state = StoredLineState{};
    // Counter 0 is an epoch boundary: every word takes a fresh
    // selection, minimized against the fresh (all-zero) cell array.
    // Its N candidates and auxiliary pad come from one pad stream.
    LinePadRequest requests[4 * (kMaxCandidates + 1)];
    unsigned lines = 0;
    for (unsigned j = 0; j <= cfg_.candidates; ++j) {
        addLinePad(requests, lines, line_addr, virtualCounter(0, j));
    }
    CacheLine pads[kMaxCandidates + 1];
    generateLinePads(otp_, requests, pads, lines);
    const uint64_t aux = pads[cfg_.candidates].limb(0);

    CacheLine cipher;
    uint64_t modified = 0;
    uint64_t sel = 0;
    encryptStep(plaintext, plaintext, CacheLine{}, 0, 0, 0, pads, cipher,
                modified, sel);
    state.data = cipher;
    state.modifiedBits = modified;
    state.cosetBits = (sel ^ aux) & auxMask_;
}

CacheLine
Vcc::read(uint64_t line_addr, const StoredLineState &state) const
{
    LinePadRequest requests[4 * kMaxReadPadLines];
    unsigned lines = planReadPads(line_addr, state, requests);
    CacheLine pads[kMaxReadPadLines];
    generateLinePads(otp_, requests, pads, lines);

    const unsigned n = cfg_.candidates;
    uint64_t sel = (state.cosetBits ^ pads[2 * n].limb(0)) & auxMask_;
    return decryptWithPads(state.data, state.modifiedBits, sel, pads,
                           pads + n);
}

unsigned
Vcc::planReadPads(uint64_t line_addr, const StoredLineState &state,
                  LinePadRequest *requests) const
{
    unsigned lines = 0;
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        addLinePad(requests, lines, line_addr,
                   virtualCounter(state.counter, j));
    }
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        addLinePad(requests, lines, line_addr,
                   virtualCounter(trailingCounter(state.counter), j));
    }
    addLinePad(requests, lines, line_addr,
               virtualCounter(state.counter, cfg_.candidates));
    return lines;
}

unsigned
Vcc::planWritePads(uint64_t line_addr, const StoredLineState &state,
                   LinePadRequest *requests) const
{
    // Read-back decryption of the current contents, then the new
    // image: candidates and auxiliary pad of c+1.
    unsigned lines = planReadPads(line_addr, state, requests);
    for (unsigned j = 0; j <= cfg_.candidates; ++j) {
        addLinePad(requests, lines, line_addr,
                   virtualCounter(state.counter + 1, j));
    }
    return lines;
}

void
Vcc::generatePads(const LinePadRequest *requests, AesBlock *pads,
                  unsigned n) const
{
    otp_.padForLines(requests, pads, n);
}

WriteResult
Vcc::writeWithPads(uint64_t, const CacheLine &plaintext,
                   StoredLineState &state,
                   const CacheLine *line_pads) const
{
    const unsigned n = cfg_.candidates;
    const CacheLine *lctr_cands = line_pads;
    const CacheLine *tctr_cands = line_pads + n;
    const uint64_t aux_old = line_pads[2 * n].limbs()[0];
    const CacheLine *new_cands = line_pads + 2 * n + 1;
    const uint64_t aux_new = line_pads[3 * n + 1].limbs()[0];

    StoredLineState before = state;

    // Read-back: decode the current selection word, then the current
    // plaintext, to identify the words this write modifies.
    uint64_t old_sel = (state.cosetBits ^ aux_old) & auxMask_;
    CacheLine cur_plain = decryptWithPads(
        state.data, state.modifiedBits, old_sel, lctr_cands, tctr_cands);

    uint64_t new_counter = state.counter + 1;
    CacheLine cipher;
    uint64_t modified = 0;
    uint64_t sel = 0;
    encryptStep(plaintext, cur_plain, state.data, new_counter,
                state.modifiedBits, old_sel, new_cands, cipher, modified,
                sel);

    state.counter = new_counter;
    state.modifiedBits = modified;
    state.data = cipher;
    // The auxiliary word is re-randomized under a fresh pad on every
    // write — its ~numWords*selBits/2 flips are the price of keeping
    // the data-dependent selection indices encrypted.
    state.cosetBits = (sel ^ aux_new) & auxMask_;
    return makeWriteResult(before, state);
}

} // namespace deuce
