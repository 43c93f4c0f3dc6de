/**
 * @file
 * CellFaultMap implementation.
 */

#include "fault/cell_fault_map.hh"

#include <algorithm>
#include <cmath>

#include "common/line_kernels.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace deuce
{

namespace
{

/**
 * Endurance of one cell as a pure function of its coordinates: a
 * lognormal sample whose underlying normal is drawn (Box-Muller) from
 * an Rng keyed by (seed, line, cell). No shared stream, so samples
 * never depend on touch order or thread count.
 */
double
sampleEndurance(uint64_t seed, uint64_t line, unsigned cell,
                double mu_log, double sigma)
{
    if (sigma <= 0.0) {
        return std::exp(mu_log);
    }
    Rng rng(splitMix64(splitMix64(seed ^ line) ^ cell));
    // nextDouble() is [0,1); reflect to (0,1] so log() stays finite.
    double u1 = 1.0 - rng.nextDouble();
    double u2 = rng.nextDouble();
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    return std::max(1.0, std::exp(mu_log + sigma * z));
}

/**
 * The smallest budget sampleEndurance() can yield, rounded down. u1
 * is at least 2^-53, so z >= -sqrt(106 ln 2) ~ -8.572: no sample is
 * below exp(mu - 8.572 sigma). Using 9 sigma and shaving 2^-20 covers
 * the rounding of the double arithmetic and of the cast to float.
 * Without variation every budget is the same float.
 */
double
lowestBudget(double mu_log, double sigma)
{
    if (sigma <= 0.0) {
        return static_cast<float>(std::exp(mu_log));
    }
    return std::max(1.0, std::exp(mu_log - 9.0 * sigma) *
                             (1.0 - 0x1p-20));
}

} // namespace

CellFaultMap::CellFaultMap(const FaultConfig &cfg) : cfg_(cfg)
{
    deuce_assert(cfg_.meanEndurance >= 1.0);
    // Mean-preserving lognormal: E[exp(mu + sigma Z)] = meanEndurance.
    muLog_ = std::log(cfg_.meanEndurance) -
             0.5 * cfg_.enduranceSigma * cfg_.enduranceSigma;
    floor_ = lowestBudget(muLog_, cfg_.enduranceSigma);

    // The most planes whose largest count, 2^K - 1, still compares
    // (as a float, like the exact check) below every budget. Counts
    // are 32-bit on both paths: a carry out of plane 31 wraps to 0
    // exactly as an exact count's increment does.
    maxPlanes_ = 0;
    while (maxPlanes_ < 32 &&
           static_cast<float>((uint64_t{1} << (maxPlanes_ + 1)) - 1) <
               floor_) {
        ++maxPlanes_;
    }
}

CellFaultMap::WriteEffect
CellFaultMap::recordWrite(uint64_t line, const CacheLine &flips,
                          const CacheLine &image)
{
    LineState &state = lines_[line];
    WriteEffect effect;
    if (state.exact) {
        chargeExact(*state.exact, flips, image, effect);
        return effect;
    }

    // No cell of a line on the planes has died, so every flip counts:
    // add one to each flipped cell's count as a ripple-carry down the
    // planes, up to the first plane that carries nothing out.
    CacheLine carry = flips;
    uint64_t carried = 0;
    for (unsigned limb = 0; limb < CacheLine::kLimbs; ++limb) {
        carried |= carry.limb(limb);
    }
    for (CacheLine &plane : state.planes) {
        if (carried == 0) {
            return effect;
        }
        carried = 0;
        for (unsigned limb = 0; limb < CacheLine::kLimbs; ++limb) {
            uint64_t &bits = plane.limb(limb);
            uint64_t out = bits & carry.limb(limb);
            bits ^= carry.limb(limb);
            carry.limb(limb) = out;
            carried |= out;
        }
    }
    if (carried == 0) {
        return effect;
    }
    if (state.planes.size() < maxPlanes_) {
        state.planes.reserve(state.planes.size() + 1);
        state.planes.push_back(carry);
        return effect;
    }
    // A count reached 2^maxPlanes_, where a budget may lie.
    toExact(line, state, flips, carry);
    chargeExact(*state.exact, flips, image, effect);
    return effect;
}

void
CellFaultMap::toExact(uint64_t line, LineState &state,
                      const CacheLine &flips, const CacheLine &carry) const
{
    auto exact = std::make_unique<ExactWear>();
    for (unsigned cell = 0; cell < CacheLine::kBits; ++cell) {
        unsigned limb = cell / 64;
        unsigned bit = cell % 64;
        uint32_t n = 0;
        for (unsigned p = 0; p < state.planes.size(); ++p) {
            n |= static_cast<uint32_t>(
                     (state.planes[p].limb(limb) >> bit) & 1)
                 << p;
        }
        // A carried cell's planes are all zero: its count is 2^K.
        n += static_cast<uint32_t>(uint64_t{carry.bit(cell)}
                                   << maxPlanes_);
        // Back out this write's flip; chargeExact() charges it again.
        n -= flips.bit(cell);
        exact->flips[cell] = n;
        exact->budget[cell] = static_cast<float>(sampleEndurance(
            cfg_.seed, line, cell, muLog_, cfg_.enduranceSigma));
    }
    state.exact = std::move(exact);
    std::vector<CacheLine>().swap(state.planes);
}

void
CellFaultMap::chargeExact(ExactWear &wear, const CacheLine &flips,
                          const CacheLine &image, WriteEffect &effect)
{
    // Conflicts are judged against the cells that were stuck *before*
    // this write: a cell dying on this very write freezes at the value
    // the write leaves behind, so it cannot conflict yet.
    lineKernels().maskedXorInto(image, wear.stuckValue, wear.stuck,
                                effect.conflicts);

    // Stuck cells no longer flip; their wear is complete.
    CacheLine live;
    lineKernels().andNotInto(flips, wear.stuck, live);
    for (unsigned limb = 0; limb < CacheLine::kLimbs; ++limb) {
        uint64_t bits = live.limb(limb);
        while (bits) {
            unsigned bit = static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            unsigned cell = limb * 64 + bit;
            if (static_cast<float>(++wear.flips[cell]) <
                wear.budget[cell]) {
                continue;
            }
            wear.stuck.setBit(cell, true);
            wear.stuckValue.setBit(cell, image.bit(cell));
            effect.newlyStuck.setBit(cell, true);
            ++stuckCells_;
        }
    }
}

CacheLine
CellFaultMap::stuckMask(uint64_t line) const
{
    const LineState *state = lines_.find(line);
    return state && state->exact ? state->exact->stuck : CacheLine{};
}

CacheLine
CellFaultMap::stuckValues(uint64_t line) const
{
    const LineState *state = lines_.find(line);
    return state && state->exact ? state->exact->stuckValue
                                 : CacheLine{};
}

void
CellFaultMap::retire(uint64_t line)
{
    const LineState *state = lines_.find(line);
    if (!state) {
        return;
    }
    if (state->exact) {
        stuckCells_ -= state->exact->stuck.popcount();
    }
    lines_.erase(line);
}

double
CellFaultMap::enduranceOf(uint64_t line, unsigned cell) const
{
    deuce_assert(cell < CacheLine::kBits);
    // Round through float: the budget an exact line keeps is a float.
    return static_cast<float>(sampleEndurance(cfg_.seed, line, cell,
                                              muLog_,
                                              cfg_.enduranceSigma));
}

} // namespace deuce
