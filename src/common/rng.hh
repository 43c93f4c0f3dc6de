/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All stochastic behaviour in the library flows through Rng so that
 * every experiment is exactly reproducible from a seed. The core
 * generator is xoshiro256** (Blackman & Vigna), chosen for speed and
 * high statistical quality; it is NOT used for any cryptographic
 * purpose (the crypto module uses AES).
 */

#ifndef DEUCE_COMMON_RNG_HH
#define DEUCE_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace deuce
{

/** The golden-ratio increment of one SplitMix64 step. */
inline constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ull;

/** SplitMix64's finalizer (Steele et al.): a full-avalanche
 *  bijection of 64 bits. */
constexpr uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One SplitMix64 output from state @p x: the golden-ratio increment,
 *  then the finalizer. */
constexpr uint64_t
splitMix64(uint64_t x)
{
    return mix64(x + kSplitMixGamma);
}

/** Deterministic xoshiro256** generator with distribution helpers. */
class Rng
{
  public:
    /** Seed the generator; identical seeds give identical streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with success probability @p p. */
    bool nextBool(double p);

    /**
     * Geometric-ish positive integer with the given mean: returns
     * 1 + Geometric(1 / mean). Used for burst lengths and word counts.
     */
    unsigned nextPositiveGeometric(double mean);

    /** Poisson-distributed count (Knuth's method; mean expected small). */
    unsigned nextPoisson(double mean);

    /**
     * Sample an index from a discrete distribution given by
     * non-negative weights. @pre at least one weight is positive.
     */
    unsigned nextWeighted(const std::vector<double> &weights);

    /** Fork a child generator whose stream is decorrelated from ours. */
    Rng fork();

  private:
    uint64_t s_[4];
};

/**
 * Sampler for a Zipf(alpha) distribution over {0, .., n-1} using the
 * rejection-inversion method of Hörmann & Derflinger, which is O(1)
 * per sample and needs no per-item tables.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     number of items (ranks); must be >= 1
     * @param alpha skew exponent; 0 gives uniform, larger is more skewed
     */
    ZipfSampler(uint64_t n, double alpha);

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    uint64_t sample(Rng &rng) const;

    uint64_t size() const { return n_; }
    double alpha() const { return alpha_; }

  private:
    double h(double x) const;
    double hInverse(double x) const;

    uint64_t n_;
    double alpha_;
    double hx0_;
    double hn_;
    double s_;
};

} // namespace deuce

#endif // DEUCE_COMMON_RNG_HH
