/**
 * @file
 * i-NVMM implementation.
 */

#include "enc/invmm.hh"

namespace deuce
{

INvmm::INvmm(const OtpEngine &otp, uint64_t cold_threshold)
    : EncryptionScheme(&otp), coldThreshold_(cold_threshold)
{}

WriteResult
INvmm::writeWithPads(uint64_t line_addr,
                     const CacheLine &plaintext,
                     StoredLineState &state,
                     const CacheLine * /* line_pads */) const
{
    StoredLineState before = state;

    // A demand write makes (or keeps) the line hot: stored plaintext,
    // written to the bus unencrypted -- the vulnerability the DEUCE
    // paper calls out.
    state.data = plaintext;
    state.modeBit = true;
    ++clock_;
    lastWrite_[line_addr] = clock_;
    ++plainWrites_;

    return makeWriteResult(before, state);
}

unsigned
INvmm::planReadPads(uint64_t line_addr, const StoredLineState &state,
                    LinePadRequest *requests) const
{
    unsigned lines = 0;
    if (!isHot(state)) {
        addLinePad(requests, lines, line_addr, state.counter);
    }
    return lines;
}

CacheLine
INvmm::readWithPads(uint64_t, const StoredLineState &state,
                    const CacheLine *line_pads) const
{
    return isHot(state) ? state.data : state.data ^ line_pads[0];
}

unsigned
INvmm::encryptColdLines(
    std::map<uint64_t, StoredLineState *> &lines) const
{
    unsigned flips = 0;
    for (auto &[addr, state] : lines) {
        if (!state->modeBit) {
            continue; // already encrypted
        }
        auto it = lastWrite_.find(addr);
        uint64_t last = (it != lastWrite_.end()) ? it->second : 0;
        if (clock_ - last < coldThreshold_) {
            continue; // still hot
        }
        // Background encryption: bump the counter so the pad is
        // fresh, store ciphertext.
        StoredLineState before = *state;
        state->counter += 1;
        state->data =
            before.data ^ otp().padForLine(addr, state->counter);
        state->modeBit = false;
        ++cipherWrites_;
        flips += makeWriteResult(before, *state).totalFlips();
    }
    return flips;
}

} // namespace deuce
