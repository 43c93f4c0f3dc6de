/**
 * @file
 * BlockLevelEncryption implementation.
 */

#include "enc/ble.hh"

#include <bit>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

BlockLevelEncryption::BlockLevelEncryption(const OtpEngine &otp,
                                           bool with_deuce,
                                           unsigned word_bytes,
                                           unsigned epoch)
    : otp_(otp), withDeuce_(with_deuce), wordBytes_(word_bytes),
      epoch_(epoch)
{
    if (wordBytes_ != 1 && wordBytes_ != 2 && wordBytes_ != 4 &&
        wordBytes_ != 8) {
        deuce_fatal("BLE+DEUCE word size must be 1, 2, 4 or 8 bytes");
    }
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

void
BlockLevelEncryption::pads(uint64_t line_addr, unsigned lctr_mask,
                           const uint64_t lctr[kBlocks],
                           unsigned tctr_mask,
                           AesBlock lctr_pads[kBlocks],
                           AesBlock tctr_pads[kBlocks]) const
{
    PadRequest requests[2 * kBlocks];
    unsigned out_block[2 * kBlocks];
    bool out_is_tctr[2 * kBlocks];
    unsigned n = 0;
    for (unsigned b = 0; b < kBlocks; ++b) {
        if (lctr_mask & (1u << b)) {
            requests[n] = PadRequest{lctr[b], b};
            out_block[n] = b;
            out_is_tctr[n] = false;
            ++n;
        }
        if (tctr_mask & (1u << b)) {
            requests[n] = PadRequest{trailing(lctr[b]), b};
            out_block[n] = b;
            out_is_tctr[n] = true;
            ++n;
        }
    }
    AesBlock generated[2 * kBlocks];
    otp_.padForBlocks(line_addr, requests, generated, n);
    for (unsigned i = 0; i < n; ++i) {
        (out_is_tctr[i] ? tctr_pads : lctr_pads)[out_block[i]] =
            generated[i];
    }
}

void
BlockLevelEncryption::xorBlock(CacheLine &line, unsigned block,
                               const AesBlock &pad)
{
    for (unsigned i = 0; i < 16; ++i) {
        unsigned byte = block * 16 + i;
        line.setByte(byte, line.byte(byte) ^ pad[i]);
    }
}

void
BlockLevelEncryption::install(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state) const
{
    state = StoredLineState{};
    state.data = plaintext;
    const uint64_t zero_ctrs[kBlocks] = {};
    AesBlock block_pads[kBlocks];
    pads(line_addr, (1u << kBlocks) - 1, zero_ctrs, 0, block_pads,
         nullptr);
    for (unsigned b = 0; b < kBlocks; ++b) {
        xorBlock(state.data, b, block_pads[b]);
    }
}

WriteResult
BlockLevelEncryption::writeWithPads(uint64_t line_addr,
                                    const CacheLine &plaintext,
                                    StoredLineState &state,
                                    const CacheLine * /* line_pads */) const
{
    StoredLineState before = state;
    CacheLine cur_plain = read(line_addr, state);

    // Pass 1: find the dirty blocks and bump their counters, so all
    // the pads the write needs can be generated as one cipher batch.
    unsigned dirty_mask = 0;
    unsigned tctr_mask = 0;
    uint64_t new_ctrs[kBlocks] = {};
    const uint64_t dirty_blocks =
        lineKernels().wordDiffMask(plaintext, cur_plain, kBlockBits);
    for (unsigned b = 0; b < kBlocks; ++b) {
        if (!(dirty_blocks & (uint64_t{1} << b))) {
            continue; // counter and ciphertext untouched
        }
        dirty_mask |= 1u << b;
        new_ctrs[b] = before.blockCounters[b] + 1;
        state.blockCounters[b] = new_ctrs[b];
        if (withDeuce_ && !isEpochStart(new_ctrs[b])) {
            tctr_mask |= 1u << b;
        }
    }
    AesBlock lctr_pads[kBlocks];
    AesBlock tctr_pads[kBlocks];
    pads(line_addr, dirty_mask, new_ctrs, tctr_mask, lctr_pads,
         tctr_pads);

    for (unsigned b = 0; b < kBlocks; ++b) {
        if (!(dirty_mask & (1u << b))) {
            continue;
        }
        unsigned block_lsb = b * kBlockBits;
        uint64_t new_ctr = new_ctrs[b];
        const AesBlock &pad_lctr = lctr_pads[b];

        if (!withDeuce_ || isEpochStart(new_ctr)) {
            // Re-encrypt the whole block with the fresh counter; in
            // DEUCE composition this is the per-block epoch start.
            for (unsigned i = 0; i < 16; ++i) {
                unsigned byte = b * 16 + i;
                state.data.setByte(byte,
                                   plaintext.byte(byte) ^ pad_lctr[i]);
            }
            if (withDeuce_) {
                uint64_t block_mask =
                    ((wordsPerBlock_ == 64)
                         ? ~uint64_t{0}
                         : ((uint64_t{1} << wordsPerBlock_) - 1))
                    << (b * wordsPerBlock_);
                state.modifiedBits &= ~block_mask;
            }
            continue;
        }

        // DEUCE inside the block: accumulate modified words, encrypt
        // them with the block LCTR, keep the rest at the block TCTR.
        const AesBlock &pad_tctr = tctr_pads[b];
        for (unsigned w = 0; w < wordsPerBlock_; ++w) {
            unsigned word_lsb = block_lsb + w * wordBits_;
            unsigned tracking_bit = b * wordsPerBlock_ + w;
            uint64_t mask = uint64_t{1} << tracking_bit;

            if (!(state.modifiedBits & mask) &&
                plaintext.field(word_lsb, wordBits_) !=
                    cur_plain.field(word_lsb, wordBits_)) {
                state.modifiedBits |= mask;
            }

            const AesBlock &p =
                (state.modifiedBits & mask) ? pad_lctr : pad_tctr;
            // Extract the matching pad bits: word w covers bytes
            // [w * wordBytes_, (w + 1) * wordBytes_) of the block.
            uint64_t pad_bits = 0;
            for (unsigned byte = 0; byte < wordBytes_; ++byte) {
                pad_bits |= static_cast<uint64_t>(
                                p[w * wordBytes_ + byte])
                            << (8 * byte);
            }
            state.data.setField(word_lsb, wordBits_,
                                plaintext.field(word_lsb, wordBits_) ^
                                pad_bits);
        }
    }
    return makeWriteResult(before, state);
}

CacheLine
BlockLevelEncryption::read(uint64_t line_addr,
                           const StoredLineState &state) const
{
    CacheLine plain = state.data;
    // One batch covers every pad of the line: 4 LCTR pads, plus the
    // 4 TCTR pads in the DEUCE composition.
    constexpr unsigned kAll = (1u << kBlocks) - 1;
    AesBlock lctr_pads[kBlocks];
    AesBlock tctr_pads[kBlocks];
    pads(line_addr, kAll, state.blockCounters.data(),
         withDeuce_ ? kAll : 0, lctr_pads, tctr_pads);
    for (unsigned b = 0; b < kBlocks; ++b) {
        if (!withDeuce_) {
            xorBlock(plain, b, lctr_pads[b]);
            continue;
        }
        const AesBlock &pad_lctr = lctr_pads[b];
        const AesBlock &pad_tctr = tctr_pads[b];
        for (unsigned w = 0; w < wordsPerBlock_; ++w) {
            unsigned word_lsb = b * kBlockBits + w * wordBits_;
            unsigned tracking_bit = b * wordsPerBlock_ + w;
            const AesBlock &p =
                (state.modifiedBits & (uint64_t{1} << tracking_bit))
                    ? pad_lctr : pad_tctr;
            uint64_t pad_bits = 0;
            for (unsigned byte = 0; byte < wordBytes_; ++byte) {
                pad_bits |= static_cast<uint64_t>(
                                p[w * wordBytes_ + byte])
                            << (8 * byte);
            }
            plain.setField(word_lsb, wordBits_,
                           plain.field(word_lsb, wordBits_) ^ pad_bits);
        }
    }
    return plain;
}

} // namespace deuce
