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
    : otp_(otp), useFnw_(use_fnw), fnwRegionBits_(fnw_region_bits)
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

void
CounterModeEncryption::install(uint64_t line_addr,
                               const CacheLine &plaintext,
                               StoredLineState &state) const
{
    state = StoredLineState{};
    state.data = plaintext ^ otp_.padForLine(line_addr, 0);
}

unsigned
CounterModeEncryption::planWritePads(uint64_t line_addr,
                                     const StoredLineState &state,
                                     LinePadRequest *requests) const
{
    for (unsigned block = 0; block < 4; ++block) {
        requests[block] =
            LinePadRequest{line_addr, state.counter + 1, block};
    }
    return 1;
}

void
CounterModeEncryption::generatePads(const LinePadRequest *requests,
                                    AesBlock *pads, unsigned n) const
{
    otp_.padForLines(requests, pads, n);
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

CacheLine
CounterModeEncryption::read(uint64_t line_addr,
                            const StoredLineState &state) const
{
    CacheLine cipher = useFnw_
        ? fnwDecode(state.data, state.flipBits, fnwRegionBits_)
        : state.data;
    return cipher ^ otp_.padForLine(line_addr, state.counter);
}

} // namespace deuce
