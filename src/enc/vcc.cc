/**
 * @file
 * VCC implementation.
 */

#include "enc/vcc.hh"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

namespace
{

/** Largest candidate count the pad-plan arena admits (3N + 2 pads). */
constexpr unsigned kMaxCandidates = (kMaxWritePadLines - 2) / 3;

/**
 * Largest MLC cell cost, in 0.1 pJ units, the integer selector
 * admits: eight cells of it stay below the 2^15 sign bit of a 16-bit
 * lane.
 */
constexpr uint64_t kMaxUnit = 4095;

/** The low bit of every 2-bit cell. */
constexpr uint64_t kCellLo = 0x5555555555555555ull;

/** Constants of @p L-bit lanes packed in a 64-bit limb. */
template <unsigned L>
struct Lanes
{
    static constexpr uint64_t kLane =
        L == 64 ? ~uint64_t{0} : (uint64_t{1} << L) - 1;
    static constexpr uint64_t kOnes = ~uint64_t{0} / kLane;
    static constexpr uint64_t kHigh = kOnes << (L - 1);
    static constexpr uint64_t kLow = kHigh - kOnes;

    /** Each lane all ones where @p high has its top bit set. */
    static uint64_t
    expand(uint64_t high)
    {
        return (high >> (L - 1)) * kLane;
    }
};

/** Per-byte popcount of @p x (each byte 0..8). */
uint64_t
bytePop(uint64_t x)
{
    x -= (x >> 1) & kCellLo;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
}

/** Per-nibble popcount of a mask with only cell-low bits set (0..2). */
uint64_t
nibblePopCells(uint64_t x)
{
    return (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
}

/**
 * Sum the four nibbles of every 16-bit lane, each at most 2. The
 * multiply gathers them in the lane's top nibble; no partial sum
 * exceeds 8, so nothing carries between nibbles or lanes.
 */
uint64_t
lanePop16(uint64_t nibbles)
{
    return ((nibbles * 0x1111ull) >> 12) & 0x000f000f000f000full;
}

/** Sum @p x's @p From-bit lanes pairwise up to @p To-bit lanes. */
template <unsigned From, unsigned To>
uint64_t
widen(uint64_t x)
{
    if constexpr (From < To) {
        x = (x + (x >> From)) & Lanes<2 * From>::kOnes *
                                    Lanes<From>::kLane;
        return widen<2 * From, To>(x);
    } else {
        return x;
    }
}

/**
 * The candidate choice of one limb's words, lane by lane: the chosen
 * pad bits, the chosen index in each lane's low bits, and each
 * lane's top bit set where more than one candidate reached the
 * minimum (tracked only when asked for).
 */
struct LanePick
{
    uint64_t pad = 0;
    uint64_t idx = 0;
    uint64_t tie = 0;
};

/**
 * Lane-wise argmin over @p n candidates' costs (every lane below
 * 2^(L-1)), keeping the lowest index on equal costs.
 */
template <unsigned L, bool Ties>
LanePick
pickLanes(const uint64_t *cost, const uint64_t *pad, unsigned n)
{
    using Ln = Lanes<L>;
    LanePick pick{pad[0], 0, 0};
    uint64_t best = cost[0];
    for (unsigned j = 1; j < n; ++j) {
        const uint64_t c = cost[j];
        // With both below 2^(L-1), (c | top) - best borrows within
        // the lane only, and clears the top bit iff c < best.
        const uint64_t lt =
            (((c | Ln::kHigh) - best) & Ln::kHigh) ^ Ln::kHigh;
        const uint64_t take = Ln::expand(lt);
        if constexpr (Ties) {
            // A nonzero lane of c ^ best carries into the top bit.
            const uint64_t eq = ~((c ^ best) + Ln::kLow) & Ln::kHigh;
            pick.tie = (pick.tie & ~lt) | eq;
        }
        best ^= (best ^ c) & take;
        pick.pad ^= (pick.pad ^ pad[j]) & take;
        pick.idx ^= (pick.idx ^ (j * Ln::kOnes)) & take;
    }
    return pick;
}

} // namespace

Vcc::Vcc(const OtpEngine &otp, const VccConfig &cfg)
    : EncryptionScheme(&otp), cfg_(cfg)
{
    if (cfg_.wordBytes != 1 && cfg_.wordBytes != 2 &&
        cfg_.wordBytes != 4 && cfg_.wordBytes != 8) {
        deuce_fatal("VCC word size must be 1, 2, 4 or 8 bytes");
    }
    if (cfg_.epochInterval < 2 ||
        !std::has_single_bit(cfg_.epochInterval)) {
        deuce_fatal("VCC epoch interval must be a power of two >= 2");
    }
    if (cfg_.candidates < 2 || !std::has_single_bit(cfg_.candidates)) {
        deuce_fatal("VCC candidate count must be a power of two >= 2");
    }
    if (cfg_.candidates > kMaxCandidates) {
        deuce_fatal("VCC candidate count exceeds the pad-plan arena "
                    "(kMaxWritePadLines)");
    }
    wordBits_ = cfg_.wordBytes * 8;
    numWords_ = CacheLine::kBits / wordBits_;
    selBits_ = static_cast<unsigned>(std::countr_zero(cfg_.candidates));
    deuce_assert(numWords_ <= 64);
    wordMask_ = wordBits_ == 64 ? ~uint64_t{0}
                                : (uint64_t{1} << wordBits_) - 1;
    allWords_ = numWords_ == 64 ? ~uint64_t{0}
                                : (uint64_t{1} << numWords_) - 1;
    if (numWords_ * selBits_ > 64) {
        deuce_fatal("VCC selection bits exceed the 64-bit auxiliary "
                    "word; use fewer candidates or larger words");
    }
    auxMask_ = numWords_ * selBits_ == 64
        ? ~uint64_t{0}
        : (uint64_t{1} << (numWords_ * selBits_)) - 1;

    if (cfg_.costModel == CellTech::MLC2) {
        // The integer selector prices a programmed cell by its target
        // level alone, in whole 0.1 pJ units (DESIGN.md §13).
        auto tenths = [](double pj) {
            const double t = std::round(pj * 10.0);
            return std::fabs(pj * 10.0 - t) <= 1e-6 && t >= 0.0 &&
                           t <= static_cast<double>(kMaxUnit)
                       ? static_cast<uint64_t>(t)
                       : kMaxUnit + 1;
        };
        const auto &e = cfg_.mlc2.energyPj;
        uint64_t unit[4];
        bool on_grid = true;
        for (unsigned to = 0; to < 4; ++to) {
            unit[to] = tenths(e[to == 0 ? 1 : 0][to]);
            on_grid = on_grid && unit[to] <= kMaxUnit;
            for (unsigned from = 0; from < 4; ++from) {
                on_grid = on_grid && (from == to
                                          ? e[from][to] == 0.0
                                          : tenths(e[from][to]) == unit[to]);
            }
        }
        if (!on_grid || unit[1] != unit[2]) {
            deuce_fatal("VCC's MLC selector needs Mlc2Model energies on "
                        "the 0.1 pJ grid, 0 to 409.5 pJ, with a zero "
                        "diagonal, one cost per target level, and "
                        "levels 1 and 2 priced alike");
        }
        unitTo0_ = unit[0];
        unitTo3_ = unit[3];
        unitTo12_ = unit[1];
    }

    const bool mlc = cfg_.costModel == CellTech::MLC2;
    switch (wordBits_) {
      case 8:
        selectFresh_ = mlc ? &Vcc::selectFresh<8, true>
                           : &Vcc::selectFresh<8, false>;
        break;
      case 16:
        selectFresh_ = mlc ? &Vcc::selectFresh<16, true>
                           : &Vcc::selectFresh<16, false>;
        break;
      case 32:
        selectFresh_ = mlc ? &Vcc::selectFresh<32, true>
                           : &Vcc::selectFresh<32, false>;
        break;
      default:
        selectFresh_ = mlc ? &Vcc::selectFresh<64, true>
                           : &Vcc::selectFresh<64, false>;
        break;
    }
}

std::string
Vcc::name() const
{
    std::ostringstream os;
    os << "VCC-" << cfg_.wordBytes << "B-e" << cfg_.epochInterval << "-n"
       << cfg_.candidates;
    if (cfg_.costModel == CellTech::MLC2) {
        os << "-mlc";
    }
    return os.str();
}

unsigned
Vcc::trackingBitsPerLine() const
{
    // Modified bits plus the encrypted selection auxiliary bits.
    return numWords_ + numWords_ * selBits_;
}

double
Vcc::wordCost(uint64_t old_word, uint64_t new_word) const
{
    if (cfg_.costModel == CellTech::SLC) {
        return static_cast<double>(std::popcount(old_word ^ new_word));
    }
    double cost = 0.0;
    for (unsigned b = 0; b < wordBits_; b += 2) {
        cost += cfg_.mlc2.energyPj[(old_word >> b) & 3]
                                  [(new_word >> b) & 3];
    }
    return cost;
}

unsigned
Vcc::selectCandidate(uint64_t old_word, uint64_t plain_word,
                     const CacheLine *cands, unsigned limb,
                     unsigned shift) const
{
    unsigned best_j = 0;
    double best_cost = 0.0;
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        uint64_t cipher_word =
            plain_word ^ ((cands[j].limb(limb) >> shift) & wordMask_);
        double cost = wordCost(old_word, cipher_word);
        // Strict < keeps ties on the lowest index: deterministic for
        // a given (line, counter, seed).
        if (j == 0 || cost < best_cost) {
            best_cost = cost;
            best_j = j;
        }
    }
    return best_j;
}

template <unsigned WordBits, bool Mlc>
void
Vcc::selectFresh(const CacheLine &plaintext, const CacheLine &old_stored,
                 const CacheLine *cands, uint64_t fresh,
                 CacheLine &cipher, uint64_t &sel) const
{
    // Every word size divides 64, so no word straddles a limb.
    constexpr unsigned kPerLimb = 64 / WordBits;
    constexpr uint64_t kLimbWords = Lanes<kPerLimb>::kLane;
    constexpr uint64_t kWord = Lanes<WordBits>::kLane;
    // MLC costs need 16-bit lanes: one-byte words go as two halves.
    constexpr bool kHalves = Mlc && WordBits == 8;
    constexpr uint64_t kEvenBytes = 0x00ff00ff00ff00ffull;
    const unsigned n = cfg_.candidates;
    const uint64_t sel_mask = (uint64_t{1} << selBits_) - 1;

    for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
        const uint64_t words = (fresh >> (l * kPerLimb)) & kLimbWords;
        if (words == 0) {
            continue;
        }
        const uint64_t old = old_stored.limb(l);
        const uint64_t plain = plaintext.limb(l);

        uint64_t cost[kMaxCandidates] = {};
        uint64_t pad[kMaxCandidates] = {};
        uint64_t cost_odd[kHalves ? kMaxCandidates : 1] = {};
        uint64_t pad_odd[kHalves ? kMaxCandidates : 1] = {};
        for (unsigned j = 0; j < n; ++j) {
            pad[j] = cands[j].limb(l);
            const uint64_t next = plain ^ pad[j];
            if constexpr (!Mlc) {
                cost[j] = widen<8, WordBits>(bytePop(old ^ next));
                continue;
            }
            // Programmed cells by target level: 0, 3, or 1/2.
            const uint64_t d = old ^ next;
            const uint64_t prog = (d | (d >> 1)) & kCellLo;
            const uint64_t lo = next & kCellLo;
            const uint64_t hi = (next >> 1) & kCellLo;
            const uint64_t to0 = nibblePopCells(prog & ~(lo | hi));
            const uint64_t to3 = nibblePopCells(prog & lo & hi);
            const uint64_t to12 = nibblePopCells(prog & (lo ^ hi));
            if constexpr (kHalves) {
                const uint64_t b0 = widen<4, 8>(to0);
                const uint64_t b3 = widen<4, 8>(to3);
                const uint64_t b12 = widen<4, 8>(to12);
                cost[j] = unitTo0_ * (b0 & kEvenBytes) +
                          unitTo3_ * (b3 & kEvenBytes) +
                          unitTo12_ * (b12 & kEvenBytes);
                cost_odd[j] = unitTo0_ * ((b0 >> 8) & kEvenBytes) +
                              unitTo3_ * ((b3 >> 8) & kEvenBytes) +
                              unitTo12_ * ((b12 >> 8) & kEvenBytes);
                pad_odd[j] = pad[j] & ~kEvenBytes;
                pad[j] &= kEvenBytes;
            } else {
                cost[j] = widen<16, WordBits>(unitTo0_ * lanePop16(to0) +
                                              unitTo3_ * lanePop16(to3) +
                                              unitTo12_ * lanePop16(to12));
            }
        }
        LanePick pick;
        if constexpr (kHalves) {
            // Re-interleave the halves into byte lanes.
            const LanePick even = pickLanes<16, true>(cost, pad, n);
            const LanePick odd = pickLanes<16, true>(cost_odd, pad_odd, n);
            pick.pad = even.pad | odd.pad;
            pick.idx = (even.idx & kEvenBytes) |
                       ((odd.idx & kEvenBytes) << 8);
            pick.tie = (even.tie >> 8) | odd.tie;
        } else {
            pick = pickLanes<WordBits, Mlc>(cost, pad, n);
        }

        // A shared integer minimum is an exact tie of the candidates'
        // energies: the pinned double sums decide it. SLC costs are
        // small integers, exact as doubles, so the lowest index
        // already is the double loop's choice.
        for (uint64_t t = pick.tie; t != 0; t &= t - 1) {
            const unsigned k =
                static_cast<unsigned>(std::countr_zero(t)) / WordBits;
            if (((words >> k) & 1) == 0) {
                continue;
            }
            const unsigned shift = k * WordBits;
            const uint64_t word_mask = kWord << shift;
            const unsigned j =
                selectCandidate((old >> shift) & kWord,
                                (plain >> shift) & kWord, cands, l, shift);
            pick.idx = (pick.idx & ~word_mask) |
                       (static_cast<uint64_t>(j) << shift);
            pick.pad = (pick.pad & ~word_mask) |
                       (cands[j].limb(l) & word_mask);
        }

        uint64_t fresh_bits = 0;
        for (uint64_t todo = words; todo != 0; todo &= todo - 1) {
            const unsigned k = static_cast<unsigned>(std::countr_zero(todo));
            const unsigned shift = k * WordBits;
            fresh_bits |= kWord << shift;
            const unsigned sel_lsb = (l * kPerLimb + k) * selBits_;
            sel = (sel & ~(sel_mask << sel_lsb)) |
                  (((pick.idx >> shift) & sel_mask) << sel_lsb);
        }
        cipher.limb(l) = (cipher.limb(l) & ~fresh_bits) |
                         ((plain ^ pick.pad) & fresh_bits);
    }
}

void
Vcc::encryptStep(const CacheLine &plaintext, const CacheLine &cur_plain,
                 const CacheLine &old_stored, uint64_t new_counter,
                 uint64_t old_modified, uint64_t old_sel,
                 const CacheLine *new_cands, CacheLine &cipher_out,
                 uint64_t &modified_out, uint64_t &sel_out) const
{
    // Epoch start: full re-encryption with a fresh selection for
    // every word; tracking bits reset. Otherwise DEUCE-style
    // tracking: words changed since the epoch start take a fresh pad
    // (min-cost among the new counter's candidates); unmodified words
    // keep their epoch ciphertext — and their epoch-start selection
    // value — at zero cell flips.
    const bool epoch = isEpochStart(new_counter);
    uint64_t modified = epoch
        ? 0
        : old_modified |
            lineKernels().wordDiffMask(plaintext, cur_plain, wordBits_);
    const uint64_t fresh = epoch ? allWords_ : modified & allWords_;

    CacheLine cipher = old_stored;
    uint64_t sel = old_sel & auxMask_;
    (this->*selectFresh_)(plaintext, old_stored, new_cands, fresh, cipher,
                          sel);
    cipher_out = cipher;
    modified_out = modified;
    sel_out = sel;
}

CacheLine
Vcc::decryptWithPads(const CacheLine &cipher, uint64_t modified,
                     uint64_t sel, const CacheLine *lctr_cands,
                     const CacheLine *tctr_cands) const
{
    // Gather each word's selected pad into one line, then one XOR.
    const uint64_t sel_mask = (uint64_t{1} << selBits_) - 1;
    CacheLine pad;
    for (unsigned w = 0; w < numWords_; ++w) {
        unsigned lsb = w * wordBits_;
        unsigned j = static_cast<unsigned>((sel >> (w * selBits_)) &
                                           sel_mask);
        const CacheLine *cands =
            ((modified >> w) & 1) ? lctr_cands : tctr_cands;
        pad.limb(lsb >> 6) |=
            cands[j].limb(lsb >> 6) & (wordMask_ << (lsb & 63));
    }
    return cipher ^ pad;
}

void
Vcc::install(uint64_t line_addr, const CacheLine &plaintext,
             StoredLineState &state) const
{
    state = StoredLineState{};
    // Counter 0 is an epoch boundary: every word takes a fresh
    // selection, minimized against the fresh (all-zero) cell array.
    // Its N candidates and auxiliary pad come from one pad stream.
    LinePadRequest requests[4 * (kMaxCandidates + 1)];
    unsigned lines = 0;
    for (unsigned j = 0; j <= cfg_.candidates; ++j) {
        addLinePad(requests, lines, line_addr, virtualCounter(0, j));
    }
    AesBlock blocks[4 * (kMaxCandidates + 1)];
    generatePads(requests, blocks, 4 * lines);
    CacheLine pads[kMaxCandidates + 1];
    assembleLinePads(blocks, pads, lines);
    const uint64_t aux = pads[cfg_.candidates].limb(0);

    CacheLine cipher;
    uint64_t modified = 0;
    uint64_t sel = 0;
    encryptStep(plaintext, plaintext, CacheLine{}, 0, 0, 0, pads, cipher,
                modified, sel);
    state.data = cipher;
    state.modifiedBits = modified;
    state.cosetBits = (sel ^ aux) & auxMask_;
}

unsigned
Vcc::planReadPads(uint64_t line_addr, const StoredLineState &state,
                  LinePadRequest *requests) const
{
    unsigned lines = 0;
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        addLinePad(requests, lines, line_addr,
                   virtualCounter(state.counter, j));
    }
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        addLinePad(requests, lines, line_addr,
                   virtualCounter(trailingCounter(state.counter), j));
    }
    addLinePad(requests, lines, line_addr,
               virtualCounter(state.counter, cfg_.candidates));
    return lines;
}

unsigned
Vcc::planWritePads(uint64_t line_addr, const StoredLineState &state,
                   LinePadRequest *requests) const
{
    // Read-back decryption of the current contents, then the new
    // image: candidates and auxiliary pad of c+1.
    unsigned lines = planReadPads(line_addr, state, requests);
    for (unsigned j = 0; j <= cfg_.candidates; ++j) {
        addLinePad(requests, lines, line_addr,
                   virtualCounter(state.counter + 1, j));
    }
    return lines;
}

CacheLine
Vcc::readWithPads(uint64_t, const StoredLineState &state,
                  const CacheLine *line_pads) const
{
    const unsigned n = cfg_.candidates;
    uint64_t sel = (state.cosetBits ^ line_pads[2 * n].limb(0)) & auxMask_;
    return decryptWithPads(state.data, state.modifiedBits, sel, line_pads,
                           line_pads + n);
}

WriteResult
Vcc::writeWithPads(uint64_t, const CacheLine &plaintext,
                   StoredLineState &state,
                   const CacheLine *line_pads) const
{
    const unsigned n = cfg_.candidates;
    const CacheLine *lctr_cands = line_pads;
    const CacheLine *tctr_cands = line_pads + n;
    const uint64_t aux_old = line_pads[2 * n].limbs()[0];
    const CacheLine *new_cands = line_pads + 2 * n + 1;
    const uint64_t aux_new = line_pads[3 * n + 1].limbs()[0];

    StoredLineState before = state;

    // Read-back: decode the current selection word, then the current
    // plaintext, to identify the words this write modifies.
    uint64_t old_sel = (state.cosetBits ^ aux_old) & auxMask_;
    CacheLine cur_plain = decryptWithPads(
        state.data, state.modifiedBits, old_sel, lctr_cands, tctr_cands);

    uint64_t new_counter = state.counter + 1;
    CacheLine cipher;
    uint64_t modified = 0;
    uint64_t sel = 0;
    encryptStep(plaintext, cur_plain, state.data, new_counter,
                state.modifiedBits, old_sel, new_cands, cipher, modified,
                sel);

    state.counter = new_counter;
    state.modifiedBits = modified;
    state.data = cipher;
    // The auxiliary word is re-randomized under a fresh pad on every
    // write — its ~numWords*selBits/2 flips are the price of keeping
    // the data-dependent selection indices encrypted.
    state.cosetBits = (sel ^ aux_new) & auxMask_;
    return makeWriteResult(before, state);
}

} // namespace deuce
