/**
 * @file
 * CounterModeEncryption implementation.
 */

#include "enc/counter_mode.hh"

#include "pcm/fnw.hh"

namespace deuce
{

CounterModeEncryption::CounterModeEncryption(const OtpEngine &otp,
                                             bool use_fnw,
                                             unsigned fnw_region_bits)
    : EncryptionScheme(&otp), useFnw_(use_fnw),
      fnwRegionBits_(fnw_region_bits)
{}

std::string
CounterModeEncryption::name() const
{
    return useFnw_ ? "Encr+FNW" : "Encr+DCW";
}

unsigned
CounterModeEncryption::trackingBitsPerLine() const
{
    return useFnw_ ? fnwRegions(fnwRegionBits_) : 0;
}

unsigned
CounterModeEncryption::planReadPads(uint64_t line_addr,
                                    const StoredLineState &state,
                                    LinePadRequest *requests) const
{
    unsigned lines = 0;
    addLinePad(requests, lines, line_addr, state.counter);
    return lines;
}

CacheLine
CounterModeEncryption::readWithPads(uint64_t,
                                    const StoredLineState &state,
                                    const CacheLine *line_pads) const
{
    CacheLine cipher = useFnw_
        ? fnwDecode(state.data, state.flipBits, fnwRegionBits_)
        : state.data;
    return cipher ^ line_pads[0];
}

unsigned
CounterModeEncryption::planWritePads(uint64_t line_addr,
                                     const StoredLineState &state,
                                     LinePadRequest *requests) const
{
    unsigned lines = 0;
    addLinePad(requests, lines, line_addr, state.counter + 1);
    return lines;
}

WriteResult
CounterModeEncryption::writeWithPads(uint64_t, const CacheLine &plaintext,
                                     StoredLineState &state,
                                     const CacheLine *line_pads) const
{
    StoredLineState before = state;

    ++state.counter;
    CacheLine cipher = plaintext ^ line_pads[0];

    if (useFnw_) {
        FnwResult fnw = applyFnw(before.data, before.flipBits, cipher,
                                 fnwRegionBits_);
        state.data = fnw.stored;
        state.flipBits = fnw.flipBits;
    } else {
        state.data = cipher;
    }
    return makeWriteResult(before, state);
}

} // namespace deuce
