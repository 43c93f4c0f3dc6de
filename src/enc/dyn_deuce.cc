/**
 * @file
 * DynDEUCE implementation.
 */

#include "enc/dyn_deuce.hh"

#include <sstream>

#include "common/logging.hh"
#include "pcm/fnw.hh"

namespace deuce
{

DynDeuce::DynDeuce(const OtpEngine &otp, unsigned word_bytes,
                   unsigned epoch)
    : EncryptionScheme(&otp),
      deuce_(otp, DeuceConfig{word_bytes, epoch, false, word_bytes * 8})
{}

std::string
DynDeuce::name() const
{
    std::ostringstream os;
    os << "DynDEUCE-" << deuce_.config().wordBytes << "B-e"
       << deuce_.config().epochInterval;
    return os.str();
}

unsigned
DynDeuce::trackingBitsPerLine() const
{
    // The shared modified/flip column plus the mode bit (Table 3:
    // 33 bits per line for the default configuration).
    return deuce_.numWords() + 1;
}

StoredLineState
DynDeuce::fnwCandidate(const CacheLine &plaintext,
                       const StoredLineState &before,
                       uint64_t new_counter, const CacheLine &pad) const
{
    // FNW mode: the whole line is re-encrypted with the fresh counter
    // and stored through FNW, with the tracking column as flip bits.
    // The previous column value is passed as the "old flip bits" so
    // the cost of rewriting the column is charged exactly; the stored
    // cell image it compares against is `before.data` as-is (in DEUCE
    // mode nothing was inverted, in FNW mode the comparison against
    // the inverted image is precisely FNW's behaviour).
    CacheLine cipher = plaintext ^ pad;
    FnwResult fnw = applyFnw(before.data, before.modifiedBits, cipher,
                             deuce_.wordBits());

    StoredLineState after = before;
    after.data = fnw.stored;
    after.modifiedBits = fnw.flipBits;
    after.counter = new_counter;
    after.modeBit = true;
    return after;
}

unsigned
DynDeuce::planReadPads(uint64_t line_addr, const StoredLineState &state,
                       LinePadRequest *requests) const
{
    if (!state.modeBit) {
        return deuce_.planReadPads(line_addr, state, requests);
    }
    unsigned lines = 0;
    addLinePad(requests, lines, line_addr, state.counter);
    return lines;
}

CacheLine
DynDeuce::readWithPads(uint64_t line_addr, const StoredLineState &state,
                       const CacheLine *line_pads) const
{
    if (!state.modeBit) {
        return deuce_.readWithPads(line_addr, state, line_pads);
    }
    return fnwDecode(state.data, state.modifiedBits, deuce_.wordBits()) ^
           line_pads[0];
}

unsigned
DynDeuce::planWritePads(uint64_t line_addr, const StoredLineState &state,
                        LinePadRequest *requests) const
{
    uint64_t new_counter = state.counter + 1;
    unsigned lines = 0;
    if (!deuce_.isEpochStart(new_counter) && !state.modeBit) {
        // Mid-epoch DEUCE mode races both encodings: read-back pads
        // first. Full re-encryptions (epoch boundary or sticky FNW
        // mode) need only the fresh-counter pad.
        lines = planReadPads(line_addr, state, requests);
    }
    addLinePad(requests, lines, line_addr, new_counter);
    return lines;
}

WriteResult
DynDeuce::writeWithPads(uint64_t line_addr, const CacheLine &plaintext,
                        StoredLineState &state,
                        const CacheLine *line_pads) const
{
    StoredLineState before = state;
    uint64_t new_counter = state.counter + 1;

    if (deuce_.isEpochStart(new_counter)) {
        // Epoch boundary: return to DEUCE mode with a full
        // re-encryption regardless of the previous mode.
        state.data = plaintext ^ line_pads[0];
        state.counter = new_counter;
        state.modifiedBits = 0;
        state.modeBit = false;
        return makeWriteResult(before, state);
    }

    if (state.modeBit) {
        // Already morphed: stay in FNW mode until the next epoch.
        state = fnwCandidate(plaintext, before, new_counter,
                             line_pads[0]);
        return makeWriteResult(before, state);
    }

    // DEUCE mode: evaluate both encodings and pick the cheaper one
    // (Figure 11). The comparison uses the exact flip counts the
    // write-circuitry would observe, including tracking-bit and mode-
    // bit changes. line_pads = [LCTR(c), TCTR(c), LCTR(c+1)]; c+1
    // shares c's epoch, so TCTR(c+1) = TCTR(c).
    CacheLine cur_plain = readWithPads(line_addr, state, line_pads);
    StoredLineState deuce_after = before;
    {
        CacheLine cipher;
        uint64_t modified = 0;
        deuce_.encryptStep(plaintext, cur_plain, new_counter,
                           before.modifiedBits, line_pads[2],
                           &line_pads[1], cipher, modified);
        deuce_after.data = cipher;
        deuce_after.modifiedBits = modified;
        deuce_after.counter = new_counter;
        deuce_after.modeBit = false;
    }
    StoredLineState fnw_after =
        fnwCandidate(plaintext, before, new_counter, line_pads[2]);

    unsigned deuce_cost =
        makeWriteResult(before, deuce_after).totalFlips();
    unsigned fnw_cost = makeWriteResult(before, fnw_after).totalFlips();

    state = (fnw_cost < deuce_cost) ? fnw_after : deuce_after;
    return makeWriteResult(before, state);
}

} // namespace deuce
