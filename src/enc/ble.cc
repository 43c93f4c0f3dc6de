/**
 * @file
 * BlockLevelEncryption implementation.
 */

#include "enc/ble.hh"

#include <bit>
#include <cstring>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

BlockLevelEncryption::BlockLevelEncryption(const OtpEngine &otp,
                                           bool with_deuce,
                                           unsigned word_bytes,
                                           unsigned epoch)
    : EncryptionScheme(&otp), withDeuce_(with_deuce),
      select_(word_bytes * 8), wordBytes_(word_bytes), epoch_(epoch)
{
    if (epoch_ < 2 || !std::has_single_bit(epoch_)) {
        deuce_fatal("BLE+DEUCE epoch must be a power of two >= 2");
    }
    wordBits_ = wordBytes_ * 8;
    wordsPerBlock_ = kBlockBits / wordBits_;
}

std::string
BlockLevelEncryption::name() const
{
    if (!withDeuce_) {
        return "BLE";
    }
    std::ostringstream os;
    os << "BLE+DEUCE-" << wordBytes_ << "B-e" << epoch_;
    return os.str();
}

unsigned
BlockLevelEncryption::trackingBitsPerLine() const
{
    return withDeuce_ ? kBlocks * wordsPerBlock_ : 0;
}

WriteResult
BlockLevelEncryption::writeWithPads(uint64_t line_addr,
                                    const CacheLine &plaintext,
                                    StoredLineState &state,
                                    const CacheLine *line_pads) const
{
    StoredLineState before = state;
    const CacheLine cur_plain = readWithPads(line_addr, state, line_pads);

    // Only the dirty blocks bump their counters and re-encrypt. Their
    // fresh LCTR pads depend on which blocks the data dirtied, so they
    // are generated here, as one cipher batch. Their TCTR pads are
    // not: a dirty block that starts an epoch takes the LCTR pad whole,
    // and one that does not keeps its trailing counter, so its TCTR pad
    // is block b of the read-back's second line pad.
    const uint64_t dirty =
        lineKernels().wordDiffMask(plaintext, cur_plain, kBlockBits);
    const uint64_t word_diff =
        withDeuce_ ? lineKernels().wordDiffMask(plaintext, cur_plain,
                                                wordBits_)
                   : 0;
    PadRequest requests[kBlocks];
    unsigned n = 0;
    uint64_t lctr_words = ~uint64_t{0}; // words taking the LCTR pad
    for (unsigned b = 0; b < kBlocks; ++b) {
        if (!((dirty >> b) & 1)) {
            continue; // counter and ciphertext untouched
        }
        const uint64_t ctr = ++state.blockCounters[b];
        requests[n++] = PadRequest{ctr, b};
        if (!withDeuce_) {
            continue;
        }
        // DEUCE inside the block: an epoch start re-encrypts it whole
        // and clears its tracking bits; otherwise its modified words
        // accumulate and only they take the LCTR pad.
        const uint64_t block_words = ((uint64_t{1} << wordsPerBlock_) - 1)
                                     << (b * wordsPerBlock_);
        if (isEpochStart(ctr)) {
            state.modifiedBits &= ~block_words;
            continue;
        }
        state.modifiedBits |= word_diff & block_words;
        lctr_words &= ~block_words | state.modifiedBits;
    }
    AesBlock generated[kBlocks];
    otp().padForBlocks(line_addr, requests, generated, n);
    uint8_t lctr_bytes[CacheLine::kBytes] = {};
    for (unsigned i = 0; i < n; ++i) {
        std::memcpy(lctr_bytes + 16 * requests[i].block,
                    generated[i].data(), 16);
    }
    const CacheLine lctr_pad = CacheLine::fromBytes(lctr_bytes);
    const CacheLine cipher =
        plaintext ^ (withDeuce_
                         ? select_(lctr_words, lctr_pad, line_pads[1])
                         : lctr_pad);
    for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
        if ((dirty >> (l * kBlocks / CacheLine::kLimbs)) & 1) {
            state.data.limb(l) = cipher.limb(l);
        }
    }
    return makeWriteResult(before, state);
}

unsigned
BlockLevelEncryption::planReadPads(uint64_t line_addr,
                                   const StoredLineState &state,
                                   LinePadRequest *requests) const
{
    for (unsigned b = 0; b < kBlocks; ++b) {
        const uint64_t lctr = state.blockCounters[b];
        requests[b] = LinePadRequest{line_addr, lctr, b};
        if (withDeuce_) {
            requests[kBlocks + b] =
                LinePadRequest{line_addr, trailing(lctr), b};
        }
    }
    return withDeuce_ ? 2 : 1;
}

CacheLine
BlockLevelEncryption::readWithPads(uint64_t, const StoredLineState &state,
                                   const CacheLine *line_pads) const
{
    // Block b of a line pad sits over block b of the line, and the
    // block-major tracking bits tile the line's words like DEUCE's.
    if (!withDeuce_) {
        return state.data ^ line_pads[0];
    }
    return state.data ^
           select_(state.modifiedBits, line_pads[0], line_pads[1]);
}

unsigned
BlockLevelEncryption::planWritePads(uint64_t line_addr,
                                    const StoredLineState &state,
                                    LinePadRequest *requests) const
{
    return planReadPads(line_addr, state, requests);
}

} // namespace deuce
