/**
 * @file
 * gem5-style statistic primitives: named values that components
 * register into a StatRegistry (obs/registry.hh) under hierarchical
 * dotted names ("system.pcm.bank3.writes").
 *
 * Three user-facing stat kinds, mirroring the subset of gem5's
 * Stats:: vocabulary this simulator needs:
 *
 *  - Scalar    one number, either owned (incremented by the component)
 *              or sourced from a callback reading the component's
 *              existing counter. Prints as an integer or a float
 *              depending on its ValueKind, so migrated counters keep
 *              their exact pre-registry text formatting.
 *  - Formula   a float computed on demand from other state (ratios,
 *              percentages, means).
 *  - Histogram a view over a component-owned Log2Histogram, the one
 *              log2-bucketed distribution type: exact count/sum/
 *              mean/min/max and bucket-interpolated percentiles.
 *              obs::AtomicLog2Histogram (obs/telemetry.hh) is its
 *              concurrent recorder; its snapshot() is a Log2Histogram.
 *
 * Text output of every stat is the classic gem5 line
 *   name                    value  # description
 * (sim/stats_dump.cc's historical format, reproduced byte-for-byte
 * for scalar stats).
 */

#ifndef DEUCE_OBS_STAT_HH
#define DEUCE_OBS_STAT_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace deuce
{
namespace obs
{

/** How a scalar value renders in the text dump. */
enum class ValueKind
{
    Int,  ///< print as an integer (uint64_t stream formatting)
    Float ///< print as a double (default stream precision, gem5-style)
};

/** Base class of every registrable statistic. */
class Stat
{
  public:
    Stat(std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    /** Full dotted name ("system.pcm.writes"). */
    const std::string &name() const { return name_; }

    /** One-line description (the text dump's '#' comment). */
    const std::string &desc() const { return desc_; }

    /**
     * Gate the stat's appearance in dumps on a predicate evaluated at
     * dump time (e.g. the wear section only prints once a write has
     * been recorded). Returns *this for chaining at registration.
     */
    Stat &visibleWhen(std::function<bool()> pred);

    /** Should this stat appear in the current dump? */
    bool visible() const;

    /** Emit the stat's text line(s) in gem5 format. */
    virtual void dumpText(std::ostream &os) const = 0;

    /** The stat's value as a JSON fragment (number or object). */
    virtual std::string jsonValue() const = 0;

  private:
    std::string name_;
    std::string desc_;
    std::function<bool()> visible_;
};

/**
 * One named number. Either owned (use the mutation operators) or
 * functor-backed (reads an existing component counter at dump time);
 * a functor-backed scalar panics on mutation.
 */
class Scalar : public Stat
{
  public:
    /** Owned value starting at zero. */
    Scalar(std::string name, std::string desc,
           ValueKind kind = ValueKind::Float);

    /** Functor-backed value (reads the component's counter). */
    Scalar(std::string name, std::string desc,
           std::function<double()> source,
           ValueKind kind = ValueKind::Float);

    double value() const { return source_ ? source_() : value_; }

    Scalar &operator+=(double d);
    Scalar &operator++();
    void set(double v);

    ValueKind kind() const { return kind_; }

    void dumpText(std::ostream &os) const override;
    std::string jsonValue() const override;

  private:
    double value_ = 0.0;
    std::function<double()> source_;
    ValueKind kind_;
};

/** A float computed on demand (ratios and other derived values). */
class Formula : public Stat
{
  public:
    Formula(std::string name, std::string desc,
            std::function<double()> fn);

    double value() const { return fn_(); }

    void dumpText(std::ostream &os) const override;
    std::string jsonValue() const override;

  private:
    std::function<double()> fn_;
};

/**
 * The log2-bucketed distribution: bucket 0 counts samples in [0, 1),
 * bucket i >= 1 counts [2^(i-1), 2^i). 64 fixed buckets cover the
 * uint64_t range (samples >= 2^63 land in the last one). Exact count,
 * sum, min and max ride along; min/max are unknown in a deltaSince()
 * window, and percentiles then interpolate between bucket edges only.
 *
 * A plain value: components own one and add to it on their thread;
 * AtomicLog2Histogram records concurrently and snapshots into one.
 */
class Log2Histogram
{
  public:
    static constexpr unsigned kBuckets = 64;

    /** Bucket sample @p x falls in, before add()'s clamp to 63. */
    static unsigned bucketIndex(uint64_t x)
    {
        return x == 0 ? 0u
                      : static_cast<unsigned>(64 - __builtin_clzll(x));
    }

    /** Add one sample. */
    void add(uint64_t x);

    /**
     * Fold another histogram's samples into this one. Every field
     * adds exactly, so the result is independent of merge order.
     */
    void mergeFrom(const Log2Histogram &other);

    /**
     * The samples recorded since @p older, an earlier state of the
     * same source(s). The window's min/max are unknown.
     */
    Log2Histogram deltaSince(const Log2Histogram &older) const;

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    bool empty() const { return count_ == 0; }

    /** sum / count; 0 when empty. */
    double mean() const;

    /** Are min() and max() known (non-empty and not a window)? */
    bool hasMinMax() const { return hasMinMax_; }
    uint64_t min() const; ///< panics unless hasMinMax()
    uint64_t max() const; ///< panics unless hasMinMax()

    /**
     * Approximate value below which fraction @p q of samples fall:
     * the bucket holding the target sample, its edges clamped to
     * [min, max] when known, interpolated linearly. 0 when empty.
     */
    double percentile(double q) const;

    /**
     * Fraction of samples strictly above @p threshold, samples
     * spread uniformly inside the bucket holding it. 0 when empty.
     */
    double fractionAbove(double threshold) const;

    /** Count in bucket @p i (0 for i >= kBuckets). */
    uint64_t bucketCount(unsigned i) const
    {
        return i < kBuckets ? buckets_[i] : 0;
    }

    /** Lower edge of bucket @p i (0, 1, 2, 4, 8, ...). */
    static double bucketLo(unsigned i);

    /** Exclusive upper edge of bucket @p i. */
    static double bucketHi(unsigned i);

    /** Highest touched bucket index + 1 (0 when empty). */
    unsigned numBuckets() const;

    void clear() { *this = Log2Histogram(); }

  private:
    friend class AtomicLog2Histogram;

    uint64_t buckets_[kBuckets] = {};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
    bool hasMinMax_ = false;
};

/**
 * Registrable histogram stat: a view over a component-owned
 * Log2Histogram, which must outlive every dump of the stat. Text dump
 * emits one line per summary field (name.count, name.mean, name.min,
 * name.max, name.p50, name.p95, name.p99); the JSON value is an
 * object carrying the summary plus the non-empty buckets.
 */
class Histogram : public Stat
{
  public:
    Histogram(std::string name, std::string desc,
              const Log2Histogram &data);

    const Log2Histogram &data() const { return data_; }

    void dumpText(std::ostream &os) const override;
    std::string jsonValue() const override;

  private:
    const Log2Histogram &data_;
};

namespace detail
{

/** The historical stats_dump text line (byte-compatible). */
void statLine(std::ostream &os, const std::string &name, double value,
              const std::string &desc);
void statLine(std::ostream &os, const std::string &name,
              uint64_t value, const std::string &desc);

/** A double as a JSON number token ("null" for non-finite values). */
std::string jsonNumber(double v);

/** An integer as a JSON number token. */
std::string jsonNumber(uint64_t v);

} // namespace detail

} // namespace obs
} // namespace deuce

#endif // DEUCE_OBS_STAT_HH
