/**
 * @file
 * Address-keyed encryption without counters — the design the paper
 * sketches at the end of Section 7.2 for systems that only need
 * stolen-DIMM protection.
 *
 * The pad is a function of the line address alone (Figure 2b). Since
 * the pad never changes, the XOR structure makes the ciphertext diff
 * equal the plaintext diff: writes cost exactly the unencrypted DCW
 * flips, with zero metadata. The trade-offs, both measurable here:
 *
 *  - no bus-snooping protection: consecutive writes of related data
 *    produce correlated ciphertexts (equal data -> equal ciphertext
 *    on the same line over time);
 *  - pad reuse across writes leaks plaintext XORs to any observer of
 *    two snapshots of the same line.
 *
 * A stolen DIMM alone still reveals nothing: without the key the
 * per-address pads cannot be regenerated, and equal plaintext on
 * *different* lines still encrypts differently.
 */

#ifndef DEUCE_ENC_ADDRESS_PAD_HH
#define DEUCE_ENC_ADDRESS_PAD_HH

#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"

namespace deuce
{

/** Counterless, address-keyed pad encryption (stolen-DIMM-only). */
class AddressPadEncryption : public EncryptionScheme
{
  public:
    /** @param otp pad generator (not owned). */
    explicit AddressPadEncryption(const OtpEngine &otp)
        : EncryptionScheme(&otp)
    {}

    std::string name() const override { return "AddrPad"; }
    unsigned trackingBitsPerLine() const override { return 0; }

    /** The counterless pad is always known: one line pad at 0. */
    unsigned
    planReadPads(uint64_t line_addr, const StoredLineState &,
                 LinePadRequest *requests) const override
    {
        unsigned lines = 0;
        addLinePad(requests, lines, line_addr, 0);
        return lines;
    }

    CacheLine
    readWithPads(uint64_t, const StoredLineState &state,
                 const CacheLine *line_pads) const override
    {
        return state.data ^ line_pads[0];
    }

    /** A write re-encrypts under the same pad as a read. */
    unsigned
    planWritePads(uint64_t line_addr, const StoredLineState &state,
                  LinePadRequest *requests) const override
    {
        return planReadPads(line_addr, state, requests);
    }

    WriteResult
    writeWithPads(uint64_t, const CacheLine &plaintext,
                  StoredLineState &state,
                  const CacheLine *line_pads) const override
    {
        StoredLineState before = state;
        state.data = plaintext ^ line_pads[0];
        return makeWriteResult(before, state);
    }
};

} // namespace deuce

#endif // DEUCE_ENC_ADDRESS_PAD_HH
