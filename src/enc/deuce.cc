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
    : EncryptionScheme(&otp), cfg_(cfg), select_(cfg.wordBytes * 8),
      wordBits_(cfg.wordBytes * 8), numWords_(CacheLine::kBits / wordBits_)
{
    if (cfg_.epochInterval < 2 ||
        !std::has_single_bit(cfg_.epochInterval)) {
        deuce_fatal("DEUCE epoch interval must be a power of two >= 2");
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
    CacheLine cipher = plaintext ^ otp().padForLine(line_addr, 0);
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
    cipher_out = plaintext ^ select_(modified, pad_lctr, *pad_tctr);
    modified_out = modified;
}

unsigned
Deuce::planReadPads(uint64_t line_addr, const StoredLineState &state,
                    LinePadRequest *requests) const
{
    unsigned lines = 0;
    addLinePad(requests, lines, line_addr, state.counter);
    addLinePad(requests, lines, line_addr,
               trailingCounter(state.counter));
    return lines;
}

CacheLine
Deuce::readWithPads(uint64_t, const StoredLineState &state,
                    const CacheLine *line_pads) const
{
    CacheLine cipher = cfg_.withFnw
        ? fnwDecode(state.data, state.flipBits, cfg_.fnwRegionBits)
        : state.data;
    return cipher ^
           select_(state.modifiedBits, line_pads[0], line_pads[1]);
}

unsigned
Deuce::planWritePads(uint64_t line_addr, const StoredLineState &state,
                     LinePadRequest *requests) const
{
    // Read-back decryption of the current contents, then the new
    // image's LCTR pad; its TCTR pad, when needed, is TCTR(c).
    unsigned lines = planReadPads(line_addr, state, requests);
    addLinePad(requests, lines, line_addr, state.counter + 1);
    return lines;
}

WriteResult
Deuce::writeWithPads(uint64_t line_addr, const CacheLine &plaintext,
                     StoredLineState &state,
                     const CacheLine *line_pads) const
{
    StoredLineState before = state;

    // "On subsequent writes, a read is performed to identify the words
    // that are modified by the given write" (Section 4.3.2):
    // line_pads[0] = LCTR(c), [1] = TCTR(c), [2] = LCTR(c+1).
    CacheLine cur_plain = readWithPads(line_addr, state, line_pads);

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

} // namespace deuce
