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

void
Vcc::genCandidates(uint64_t line_addr, uint64_t counter,
                   CacheLine *cands) const
{
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        cands[j] = otp_.padForLine(line_addr, virtualCounter(counter, j));
    }
}

uint64_t
Vcc::auxPad64(uint64_t line_addr, uint64_t counter) const
{
    return otp_
        .padForLine(line_addr, virtualCounter(counter, cfg_.candidates))
        .limbs()[0];
}

unsigned
Vcc::selectCandidate(uint64_t old_word, uint64_t plain_word,
                     const CacheLine *cands, unsigned lsb) const
{
    unsigned best_j = 0;
    double best_cost = 0.0;
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        uint64_t cipher_word =
            plain_word ^ cands[j].field(lsb, wordBits_);
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
    CacheLine cipher;
    uint64_t sel = 0;

    if (isEpochStart(new_counter)) {
        // Epoch start: full re-encryption with a fresh selection for
        // every word; tracking bits reset.
        for (unsigned w = 0; w < numWords_; ++w) {
            unsigned lsb = w * wordBits_;
            uint64_t plain_word = plaintext.field(lsb, wordBits_);
            unsigned j = selectCandidate(
                old_stored.field(lsb, wordBits_), plain_word, new_cands,
                lsb);
            cipher.setField(lsb, wordBits_,
                            plain_word ^
                                new_cands[j].field(lsb, wordBits_));
            sel |= static_cast<uint64_t>(j) << (w * selBits_);
        }
        cipher_out = cipher;
        modified_out = 0;
        sel_out = sel;
        return;
    }

    // DEUCE-style tracking: words changed since the epoch start take
    // a fresh pad (min-cost among the new counter's candidates);
    // unmodified words keep their epoch ciphertext — and their
    // epoch-start selection value — at zero cell flips.
    uint64_t modified =
        old_modified |
        lineKernels().wordDiffMask(plaintext, cur_plain, wordBits_);

    for (unsigned w = 0; w < numWords_; ++w) {
        unsigned lsb = w * wordBits_;
        if ((modified >> w) & 1) {
            uint64_t plain_word = plaintext.field(lsb, wordBits_);
            unsigned j = selectCandidate(
                old_stored.field(lsb, wordBits_), plain_word, new_cands,
                lsb);
            cipher.setField(lsb, wordBits_,
                            plain_word ^
                                new_cands[j].field(lsb, wordBits_));
            sel |= static_cast<uint64_t>(j) << (w * selBits_);
        } else {
            cipher.setField(lsb, wordBits_,
                            old_stored.field(lsb, wordBits_));
            sel |= ((old_sel >> (w * selBits_)) & sel_mask)
                   << (w * selBits_);
        }
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
    const uint64_t sel_mask = (uint64_t{1} << selBits_) - 1;
    CacheLine plain;
    for (unsigned w = 0; w < numWords_; ++w) {
        unsigned lsb = w * wordBits_;
        unsigned j = static_cast<unsigned>((sel >> (w * selBits_)) &
                                           sel_mask);
        const CacheLine &pad =
            ((modified >> w) & 1) ? lctr_cands[j] : tctr_cands[j];
        plain.setField(lsb, wordBits_,
                       cipher.field(lsb, wordBits_) ^
                           pad.field(lsb, wordBits_));
    }
    return plain;
}

void
Vcc::install(uint64_t line_addr, const CacheLine &plaintext,
             StoredLineState &state) const
{
    state = StoredLineState{};
    // Counter 0 is an epoch boundary: every word takes a fresh
    // selection, minimized against the fresh (all-zero) cell array.
    CacheLine cands[kMaxCandidates];
    genCandidates(line_addr, 0, cands);
    uint64_t aux = auxPad64(line_addr, 0);

    CacheLine cipher;
    uint64_t modified = 0;
    uint64_t sel = 0;
    encryptStep(plaintext, plaintext, CacheLine{}, 0, 0, 0, cands,
                cipher, modified, sel);
    state.data = cipher;
    state.modifiedBits = modified;
    state.cosetBits = (sel ^ aux) & auxMask_;
}

CacheLine
Vcc::read(uint64_t line_addr, const StoredLineState &state) const
{
    CacheLine lctr_cands[kMaxCandidates];
    CacheLine tctr_cands[kMaxCandidates];
    genCandidates(line_addr, state.counter, lctr_cands);
    genCandidates(line_addr, trailingCounter(state.counter), tctr_cands);
    uint64_t sel =
        (state.cosetBits ^ auxPad64(line_addr, state.counter)) &
        auxMask_;
    return decryptWithPads(state.data, state.modifiedBits, sel,
                           lctr_cands, tctr_cands);
}

unsigned
Vcc::planWritePads(uint64_t line_addr, const StoredLineState &state,
                   LinePadRequest *requests) const
{
    unsigned n = 0;
    auto addLine = [&](uint64_t vctr) {
        for (unsigned block = 0; block < 4; ++block) {
            requests[n * 4 + block] =
                LinePadRequest{line_addr, vctr, block};
        }
        ++n;
    };
    // Read-back decryption of the current contents...
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        addLine(virtualCounter(state.counter, j));
    }
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        addLine(virtualCounter(trailingCounter(state.counter), j));
    }
    addLine(virtualCounter(state.counter, cfg_.candidates));
    // ...then the new image: candidates and auxiliary pad of c+1.
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        addLine(virtualCounter(state.counter + 1, j));
    }
    addLine(virtualCounter(state.counter + 1, cfg_.candidates));
    return n;
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
