/**
 * @file
 * DEUCE implementation.
 */

#include "enc/deuce.hh"

#include <bit>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"
#include "pcm/fnw.hh"

namespace deuce
{

Deuce::Deuce(const OtpEngine &otp, const DeuceConfig &cfg)
    : otp_(otp), cfg_(cfg)
{
    if (cfg_.wordBytes != 1 && cfg_.wordBytes != 2 &&
        cfg_.wordBytes != 4 && cfg_.wordBytes != 8) {
        deuce_fatal("DEUCE word size must be 1, 2, 4 or 8 bytes");
    }
    if (cfg_.epochInterval < 2 ||
        !std::has_single_bit(cfg_.epochInterval)) {
        deuce_fatal("DEUCE epoch interval must be a power of two >= 2");
    }
    wordBits_ = cfg_.wordBytes * 8;
    numWords_ = CacheLine::kBits / wordBits_;
    deuce_assert(numWords_ <= 64);
    wordsPerLimb_ = 64 / wordBits_;
    const uint64_t word_ones = wordBits_ == 64
        ? ~uint64_t{0}
        : (uint64_t{1} << wordBits_) - 1;
    for (unsigned sel = 0; sel < (1u << wordsPerLimb_); ++sel) {
        uint64_t mask = 0;
        for (unsigned w = 0; w < wordsPerLimb_; ++w) {
            if ((sel >> w) & 1) {
                mask |= word_ones << (w * wordBits_);
            }
        }
        limbMasks_[sel] = mask;
    }
}

std::string
Deuce::name() const
{
    std::ostringstream os;
    os << "DEUCE-" << cfg_.wordBytes << "B-e" << cfg_.epochInterval;
    if (cfg_.withFnw) {
        os << "+FNW";
    }
    return os.str();
}

unsigned
Deuce::trackingBitsPerLine() const
{
    unsigned bits = numWords_;
    if (cfg_.withFnw) {
        bits += fnwRegions(cfg_.fnwRegionBits);
    }
    return bits;
}

void
Deuce::install(uint64_t line_addr, const CacheLine &plaintext,
               StoredLineState &state) const
{
    state = StoredLineState{};
    // Counter 0 is an epoch boundary: the whole line carries the pad
    // of LCTR = TCTR = 0 and all modified bits are clear.
    CacheLine cipher = plaintext ^ otp_.padForLine(line_addr, 0);
    if (cfg_.withFnw) {
        FnwResult fnw = applyFnw(CacheLine{}, 0, cipher,
                                 cfg_.fnwRegionBits);
        state.data = fnw.stored;
        state.flipBits = fnw.flipBits;
    } else {
        state.data = cipher;
    }
}

void
Deuce::encryptStep(const CacheLine &plaintext, const CacheLine &cur_plain,
                   uint64_t new_counter, uint64_t old_modified,
                   const CacheLine &pad_lctr, const CacheLine *pad_tctr,
                   CacheLine &cipher_out, uint64_t &modified_out) const
{
    if (isEpochStart(new_counter)) {
        // Epoch start: full re-encryption, tracking bits reset.
        cipher_out = plaintext ^ pad_lctr;
        modified_out = 0;
        return;
    }
    deuce_assert(pad_tctr != nullptr);

    // Mark words that this write changes relative to current contents.
    // Words already tracked since the epoch start stay marked, so the
    // full diff mask can simply be OR-ed in.
    uint64_t modified =
        old_modified |
        lineKernels().wordDiffMask(plaintext, cur_plain, wordBits_);

    // Modified words take the fresh LCTR pad; unmodified words keep
    // their epoch-start (TCTR) ciphertext. Since an unmodified word's
    // plaintext equals the current plaintext, XORing it with the TCTR
    // pad reproduces the stored ciphertext bit-for-bit.
    cipher_out = plaintext ^ selectWords(modified, pad_lctr, *pad_tctr);
    modified_out = modified;
}

CacheLine
Deuce::selectWords(uint64_t words, const CacheLine &on,
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

CacheLine
Deuce::decryptWith(uint64_t line_addr, const CacheLine &cipher,
                   uint64_t counter, uint64_t modified) const
{
    // Both pads are generated as one pad stream (in hardware: in
    // parallel); the modified bit selects per word which decryption
    // to keep (Figure 7).
    LinePadRequest requests[8];
    for (unsigned block = 0; block < 4; ++block) {
        requests[block] = LinePadRequest{line_addr, counter, block};
        requests[4 + block] =
            LinePadRequest{line_addr, trailingCounter(counter), block};
    }
    CacheLine pads[2];
    generateLinePads(otp_, requests, pads, 2);
    return decryptWithPads(cipher, modified, pads[0], pads[1]);
}

CacheLine
Deuce::decryptWithPads(const CacheLine &cipher, uint64_t modified,
                       const CacheLine &pad_lctr,
                       const CacheLine &pad_tctr) const
{
    return cipher ^ selectWords(modified, pad_lctr, pad_tctr);
}

unsigned
Deuce::planWritePads(uint64_t line_addr, const StoredLineState &state,
                     LinePadRequest *requests) const
{
    unsigned n = 0;
    auto addLine = [&](uint64_t counter) {
        for (unsigned block = 0; block < 4; ++block) {
            requests[n * 4 + block] =
                LinePadRequest{line_addr, counter, block};
        }
        ++n;
    };
    // Read-back decryption of the current contents, then the new
    // image's LCTR pad; its TCTR pad, when needed, is TCTR(c).
    addLine(state.counter);
    addLine(trailingCounter(state.counter));
    addLine(state.counter + 1);
    return n;
}

void
Deuce::generatePads(const LinePadRequest *requests, AesBlock *pads,
                    unsigned n) const
{
    otp_.padForLines(requests, pads, n);
}

WriteResult
Deuce::writeWithPads(uint64_t, const CacheLine &plaintext,
                     StoredLineState &state,
                     const CacheLine *line_pads) const
{
    StoredLineState before = state;

    // "On subsequent writes, a read is performed to identify the words
    // that are modified by the given write" (Section 4.3.2):
    // line_pads[0] = LCTR(c), [1] = TCTR(c), [2] = LCTR(c+1).
    CacheLine cur_cipher = cfg_.withFnw
        ? fnwDecode(state.data, state.flipBits, cfg_.fnwRegionBits)
        : state.data;
    CacheLine cur_plain = decryptWithPads(cur_cipher, state.modifiedBits,
                                          line_pads[0], line_pads[1]);

    uint64_t new_counter = state.counter + 1;
    CacheLine cipher;
    uint64_t modified = 0;
    encryptStep(plaintext, cur_plain, new_counter, state.modifiedBits,
                line_pads[2],
                isEpochStart(new_counter) ? nullptr : &line_pads[1],
                cipher, modified);

    state.counter = new_counter;
    state.modifiedBits = modified;
    if (cfg_.withFnw) {
        FnwResult fnw = applyFnw(before.data, before.flipBits, cipher,
                                 cfg_.fnwRegionBits);
        state.data = fnw.stored;
        state.flipBits = fnw.flipBits;
    } else {
        state.data = cipher;
    }
    return makeWriteResult(before, state);
}

CacheLine
Deuce::read(uint64_t line_addr, const StoredLineState &state) const
{
    CacheLine cipher = cfg_.withFnw
        ? fnwDecode(state.data, state.flipBits, cfg_.fnwRegionBits)
        : state.data;
    return decryptWith(line_addr, cipher, state.counter,
                       state.modifiedBits);
}

} // namespace deuce
