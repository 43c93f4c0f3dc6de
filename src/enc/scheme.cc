/**
 * @file
 * The one read and write path (plan → generate → decode) and the
 * central write accounting shared by all schemes.
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

namespace
{

/**
 * Stack arenas for one op's pad plan, sized for the largest plan.
 * Raw storage: LinePadRequest and CacheLine arrays would zero every
 * slot per call, and most ops plan three line pads or none.
 */
struct PadArena
{
    PadArena() {}

    union Requests
    {
        Requests() {}
        LinePadRequest at[4 * kMaxWritePadLines];
    } requests;
    union LinePads
    {
        LinePads() {}
        CacheLine at[kMaxWritePadLines];
    } linePads;
    AesBlock blocks[4 * kMaxWritePadLines];

    /** Generate and assemble the @p lines line pads planned. */
    const CacheLine *
    generate(const EncryptionScheme &scheme, unsigned lines)
    {
        if (lines > 0) {
            scheme.generatePads(requests.at, blocks, 4 * lines);
            assembleLinePads(blocks, linePads.at, lines);
        }
        return linePads.at;
    }
};

} // namespace

WriteResult
EncryptionScheme::write(uint64_t line_addr, const CacheLine &plaintext,
                        StoredLineState &state) const
{
    PadArena arena;
    unsigned lines = planWritePads(line_addr, state, arena.requests.at);
    return writeWithPads(line_addr, plaintext, state,
                         arena.generate(*this, lines));
}

CacheLine
EncryptionScheme::read(uint64_t line_addr,
                       const StoredLineState &state) const
{
    PadArena arena;
    unsigned lines = planReadPads(line_addr, state, arena.requests.at);
    return readWithPads(line_addr, state, arena.generate(*this, lines));
}

void
EncryptionScheme::install(uint64_t line_addr, const CacheLine &plaintext,
                          StoredLineState &state) const
{
    state = StoredLineState{};
    state.data = plaintext ^ otp().padForLine(line_addr, 0);
}

unsigned
EncryptionScheme::planReadPads(uint64_t, const StoredLineState &,
                               LinePadRequest *) const
{
    // Default: the scheme stores plaintext.
    return 0;
}

unsigned
EncryptionScheme::planWritePads(uint64_t, const StoredLineState &,
                                LinePadRequest *) const
{
    // Default: the scheme writes without pads.
    return 0;
}

void
EncryptionScheme::generatePads(const LinePadRequest *requests,
                               AesBlock *pads, unsigned n) const
{
    if (n == 0) {
        return;
    }
    if (otp_ == nullptr) {
        deuce_fatal("generatePads called on a scheme that plans no "
                    "pads");
    }
    otp_->padForLines(requests, pads, n);
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
