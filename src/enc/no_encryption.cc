/**
 * @file
 * NoEncryption implementation.
 */

#include "enc/no_encryption.hh"

#include "pcm/fnw.hh"

namespace deuce
{

NoEncryption::NoEncryption(bool use_fnw, unsigned fnw_region_bits)
    : EncryptionScheme(nullptr), useFnw_(use_fnw),
      fnwRegionBits_(fnw_region_bits)
{}

std::string
NoEncryption::name() const
{
    return useFnw_ ? "NoEncr+FNW" : "NoEncr+DCW";
}

unsigned
NoEncryption::trackingBitsPerLine() const
{
    return useFnw_ ? fnwRegions(fnwRegionBits_) : 0;
}

void
NoEncryption::install(uint64_t /* line_addr */, const CacheLine &plaintext,
                      StoredLineState &state) const
{
    state = StoredLineState{};
    state.data = plaintext;
}

WriteResult
NoEncryption::writeWithPads(uint64_t /* line_addr */,
                            const CacheLine &plaintext,
                            StoredLineState &state,
                            const CacheLine * /* line_pads */) const
{
    StoredLineState before = state;
    if (useFnw_) {
        FnwResult fnw = applyFnw(state.data, state.flipBits, plaintext,
                                 fnwRegionBits_);
        state.data = fnw.stored;
        state.flipBits = fnw.flipBits;
    } else {
        state.data = plaintext;
    }
    return makeWriteResult(before, state);
}

CacheLine
NoEncryption::readWithPads(uint64_t /* line_addr */,
                           const StoredLineState &state,
                           const CacheLine * /* line_pads */) const
{
    if (useFnw_) {
        return fnwDecode(state.data, state.flipBits, fnwRegionBits_);
    }
    return state.data;
}

} // namespace deuce
