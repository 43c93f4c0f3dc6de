/**
 * @file
 * Central write accounting shared by all schemes.
 */

#include "enc/scheme.hh"

#include <bit>
#include <memory>

#include "common/line_kernels.hh"
#include "common/logging.hh"
#include "obs/registry.hh"

namespace deuce
{

void
EncryptionScheme::registerStats(obs::StatRegistry &reg,
                                const std::string &prefix) const
{
    // Byte-compatible with the historical hand-written stats_dump
    // line for this counter (name, description, integer formatting).
    reg.addIntValue(prefix + ".trackingBits",
                    "per-line tracking-bit overhead", [this] {
                        return static_cast<uint64_t>(
                            trackingBitsPerLine());
                    });
}

void
assembleLinePads(const AesBlock *blocks, CacheLine *line_pads,
                 unsigned lines)
{
    for (unsigned p = 0; p < lines; ++p) {
        std::construct_at(&line_pads[p],
                          CacheLine::fromBytes(blocks[4 * p].data()));
    }
}

void
generateLinePads(const OtpEngine &otp, const LinePadRequest *requests,
                 CacheLine *line_pads, unsigned lines)
{
    deuce_assert(lines <= kMaxWritePadLines);
    AesBlock blocks[4 * kMaxWritePadLines];
    otp.padForLines(requests, blocks, 4 * lines);
    assembleLinePads(blocks, line_pads, lines);
}

WriteResult
EncryptionScheme::write(uint64_t line_addr, const CacheLine &plaintext,
                        StoredLineState &state) const
{
    // Raw arenas sized for the largest plan: LinePadRequest and
    // CacheLine arrays would zero every slot per call, and most
    // writes plan three line pads or none.
    union Requests
    {
        Requests() {}
        LinePadRequest at[4 * kMaxWritePadLines];
    } requests;
    union LinePads
    {
        LinePads() {}
        CacheLine at[kMaxWritePadLines];
    } line_pads;
    AesBlock blocks[4 * kMaxWritePadLines];
    unsigned lines = planWritePads(line_addr, state, requests.at);
    if (lines > 0) {
        generatePads(requests.at, blocks, 4 * lines);
        assembleLinePads(blocks, line_pads.at, lines);
    }
    return writeWithPads(line_addr, plaintext, state, line_pads.at);
}

unsigned
EncryptionScheme::planWritePads(uint64_t, const StoredLineState &,
                                LinePadRequest *) const
{
    // Default: the scheme's pads depend on the data, so it generates
    // them inside writeWithPads().
    return 0;
}

void
EncryptionScheme::generatePads(const LinePadRequest *, AesBlock *,
                               unsigned n) const
{
    if (n > 0) {
        deuce_fatal("generatePads called on a scheme that plans no "
                    "pads");
    }
}

WriteResult
makeWriteResult(const StoredLineState &before,
                const StoredLineState &after)
{
    WriteResult r;
    // One fused pass (XOR + popcount) over the hottest diff in the
    // simulator: every writeback of every scheme funnels through here.
    r.dataFlips = lineKernels().diffInto(before.data, after.data,
                                         r.dataDiff);

    constexpr uint64_t ctr_mask = (uint64_t{1} << kLineCounterBits) - 1;

    unsigned meta = 0;
    meta += static_cast<unsigned>(
        std::popcount((before.counter ^ after.counter) & ctr_mask));
    for (unsigned b = 0; b < 4; ++b) {
        meta += static_cast<unsigned>(std::popcount(
            (before.blockCounters[b] ^ after.blockCounters[b]) &
            ctr_mask));
    }

    r.modifiedDiff = before.modifiedBits ^ after.modifiedBits;
    r.flipDiff = before.flipBits ^ after.flipBits;
    r.cosetDiff = before.cosetBits ^ after.cosetBits;
    meta += static_cast<unsigned>(std::popcount(r.modifiedDiff));
    meta += static_cast<unsigned>(std::popcount(r.flipDiff));
    meta += static_cast<unsigned>(std::popcount(r.cosetDiff));
    if (before.modeBit != after.modeBit) {
        // The mode bit's wear (<= 2 flips per epoch) is charged to the
        // flip count only; it has no dedicated wear-tracker position.
        ++meta;
    }
    r.metaFlips = meta;
    return r;
}

} // namespace deuce
