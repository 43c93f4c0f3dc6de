/**
 * @file
 * RunningStat, the streaming summary accumulator used throughout the
 * simulator. Distributions are obs::Log2Histogram (obs/stat.hh).
 */

#ifndef DEUCE_COMMON_STATS_HH
#define DEUCE_COMMON_STATS_HH

#include <cstdint>

namespace deuce
{

/** Streaming mean / variance / min / max accumulator (Welford). */
class RunningStat
{
  public:
    RunningStat() = default;

    /** Add one sample. */
    void add(double x);

    /**
     * Fold another accumulator's samples into this one (Chan et al.
     * pairwise update of mean and M2). Merging shard-local
     * accumulators in a fixed shard order gives run-to-run
     * reproducible aggregates; the floating-point mean may differ in
     * the last ulps from a single accumulator fed the union of the
     * samples, which is why the serving determinism gate compares
     * integer counters, never merged means.
     */
    void merge(const RunningStat &other);

    /** Number of samples added. */
    uint64_t count() const { return count_; }

    /** True when no samples have been added. */
    bool empty() const { return count_ == 0; }

    /** Arithmetic mean of the samples (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Unbiased sample variance (0 for fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /**
     * Smallest sample. Panics on the empty accumulator: "no samples"
     * is not a zero sample — callers check empty() first, so an
     * unguarded extremum of nothing fails loudly instead of feeding
     * a silent 0.0 into an aggregate.
     */
    double min() const;

    /** Largest sample; panics on the empty accumulator (see min()). */
    double max() const;

    /** Reset to the empty state. */
    void clear() { *this = RunningStat(); }

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace deuce

#endif // DEUCE_COMMON_STATS_HH
