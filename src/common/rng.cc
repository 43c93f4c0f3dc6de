/**
 * @file
 * Rng and ZipfSampler implementation.
 */

#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace deuce
{

namespace
{

uint64_t
rotl64(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    // SplitMix64 steps expand the seed into xoshiro state.
    for (auto &limb : s_) {
        limb = splitMix64(sm);
        sm += kSplitMixGamma;
    }
}

uint64_t
Rng::next()
{
    uint64_t result = rotl64(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl64(s_[3], 45);

    return result;
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    deuce_assert(bound > 0);
    // Rejection sampling to remove modulo bias.
    uint64_t threshold = (~bound + 1) % bound; // == 2^64 mod bound
    for (;;) {
        uint64_t r = next();
        if (r >= threshold) {
            return r % bound;
        }
    }
}

double
Rng::nextDouble()
{
    // 53 high bits give a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return nextDouble() < p;
}

unsigned
Rng::nextPositiveGeometric(double mean)
{
    if (mean <= 1.0) {
        return 1;
    }
    // X = 1 + Geometric(p) with p = 1/mean has E[X] = mean.
    double p = 1.0 / mean;
    double u = nextDouble();
    // Inverse CDF of the geometric distribution on {0, 1, ...}.
    unsigned g = static_cast<unsigned>(
        std::floor(std::log1p(-u) / std::log1p(-p)));
    return 1 + g;
}

unsigned
Rng::nextPoisson(double mean)
{
    if (mean <= 0.0) {
        return 0;
    }
    // Knuth's multiplication method; adequate for the small means used
    // by the workload generators.
    double limit = std::exp(-mean);
    double product = nextDouble();
    unsigned count = 0;
    while (product > limit) {
        product *= nextDouble();
        ++count;
    }
    return count;
}

unsigned
Rng::nextWeighted(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        total += w;
    }
    deuce_assert(total > 0.0);

    double target = nextDouble() * total;
    double acc = 0.0;
    for (unsigned i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (target < acc) {
            return i;
        }
    }
    return static_cast<unsigned>(weights.size() - 1);
}

Rng
Rng::fork()
{
    // Derive a child seed from two raw draws; the splitmix expansion in
    // the constructor decorrelates the child stream.
    uint64_t child_seed = next() ^ rotl64(next(), 32);
    return Rng(child_seed);
}

ZipfSampler::ZipfSampler(uint64_t n, double alpha)
    : n_(n), alpha_(alpha)
{
    deuce_assert(n >= 1);
    deuce_assert(alpha >= 0.0);
    hx0_ = h(0.5) - 1.0;
    hn_ = h(static_cast<double>(n) + 0.5);
    s_ = 1.0 - hInverse(h(1.5) - std::pow(2.0, -alpha_));
}

double
ZipfSampler::h(double x) const
{
    // Integral of x^-alpha (the continuous envelope of the pmf).
    if (alpha_ == 1.0) {
        return std::log(x);
    }
    return std::pow(x, 1.0 - alpha_) / (1.0 - alpha_);
}

double
ZipfSampler::hInverse(double x) const
{
    if (alpha_ == 1.0) {
        return std::exp(x);
    }
    return std::pow((1.0 - alpha_) * x, 1.0 / (1.0 - alpha_));
}

uint64_t
ZipfSampler::sample(Rng &rng) const
{
    if (alpha_ == 0.0) {
        return rng.nextBounded(n_);
    }
    for (;;) {
        double u = hx0_ + rng.nextDouble() * (hn_ - hx0_);
        double x = hInverse(u);
        uint64_t k = static_cast<uint64_t>(x + 0.5);
        if (k < 1) {
            k = 1;
        }
        if (k > n_) {
            k = n_;
        }
        double kd = static_cast<double>(k);
        if (kd - x <= s_ ||
            u >= h(kd + 0.5) - std::pow(kd, -alpha_)) {
            return k - 1; // ranks are 0-based externally
        }
    }
}

} // namespace deuce
