/**
 * @file
 * Statistic primitive implementations.
 */

#include "obs/stat.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace deuce
{
namespace obs
{

namespace detail
{

namespace
{

// The exact layout sim/stats_dump.cc has used since the first dump:
// left-aligned name, right-aligned value, '#'-prefixed description.
constexpr int kNameWidth = 44;
constexpr int kValueWidth = 16;

} // namespace

void
statLine(std::ostream &os, const std::string &name, double value,
         const std::string &desc)
{
    os << std::left << std::setw(kNameWidth) << name << std::right
       << std::setw(kValueWidth) << value << "  # " << desc << '\n';
}

void
statLine(std::ostream &os, const std::string &name, uint64_t value,
         const std::string &desc)
{
    os << std::left << std::setw(kNameWidth) << name << std::right
       << std::setw(kValueWidth) << value << "  # " << desc << '\n';
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    // An integral double prints without a decimal point, which JSON
    // parses as an int — convenient for counters surfaced as doubles.
    std::ostringstream os;
    os << std::setprecision(12) << v;
    return os.str();
}

std::string
jsonNumber(uint64_t v)
{
    return std::to_string(v);
}

} // namespace detail

Stat::Stat(std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    deuce_assert(!name_.empty());
}

Stat &
Stat::visibleWhen(std::function<bool()> pred)
{
    visible_ = std::move(pred);
    return *this;
}

bool
Stat::visible() const
{
    return !visible_ || visible_();
}

Scalar::Scalar(std::string name, std::string desc, ValueKind kind)
    : Stat(std::move(name), std::move(desc)), kind_(kind)
{
}

Scalar::Scalar(std::string name, std::string desc,
               std::function<double()> source, ValueKind kind)
    : Stat(std::move(name), std::move(desc)),
      source_(std::move(source)), kind_(kind)
{
}

Scalar &
Scalar::operator+=(double d)
{
    deuce_assert(!source_);
    value_ += d;
    return *this;
}

Scalar &
Scalar::operator++()
{
    return *this += 1.0;
}

void
Scalar::set(double v)
{
    deuce_assert(!source_);
    value_ = v;
}

void
Scalar::dumpText(std::ostream &os) const
{
    if (kind_ == ValueKind::Int) {
        detail::statLine(os, name(),
                         static_cast<uint64_t>(value()), desc());
    } else {
        detail::statLine(os, name(), value(), desc());
    }
}

std::string
Scalar::jsonValue() const
{
    if (kind_ == ValueKind::Int) {
        return detail::jsonNumber(static_cast<uint64_t>(value()));
    }
    return detail::jsonNumber(value());
}

Formula::Formula(std::string name, std::string desc,
                 std::function<double()> fn)
    : Stat(std::move(name), std::move(desc)), fn_(std::move(fn))
{
    deuce_assert(fn_ != nullptr);
}

void
Formula::dumpText(std::ostream &os) const
{
    detail::statLine(os, name(), value(), desc());
}

std::string
Formula::jsonValue() const
{
    return detail::jsonNumber(value());
}

void
Log2Histogram::add(uint64_t x)
{
    ++buckets_[std::min(bucketIndex(x), kBuckets - 1)];
    ++count_;
    sum_ += x;
    min_ = hasMinMax_ ? std::min(min_, x) : x;
    max_ = hasMinMax_ ? std::max(max_, x) : x;
    hasMinMax_ = true;
}

void
Log2Histogram::mergeFrom(const Log2Histogram &other)
{
    for (unsigned i = 0; i < kBuckets; ++i) {
        buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.hasMinMax_) {
        min_ = hasMinMax_ ? std::min(min_, other.min_) : other.min_;
        max_ = hasMinMax_ ? std::max(max_, other.max_) : other.max_;
        hasMinMax_ = true;
    }
}

Log2Histogram
Log2Histogram::deltaSince(const Log2Histogram &older) const
{
    Log2Histogram d;
    for (unsigned i = 0; i < kBuckets; ++i) {
        d.buckets_[i] = buckets_[i] >= older.buckets_[i]
                            ? buckets_[i] - older.buckets_[i]
                            : 0;
        d.count_ += d.buckets_[i];
    }
    d.sum_ = sum_ >= older.sum_ ? sum_ - older.sum_ : 0;
    return d;
}

double
Log2Histogram::mean() const
{
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
}

uint64_t
Log2Histogram::min() const
{
    deuce_assert(hasMinMax_);
    return min_;
}

uint64_t
Log2Histogram::max() const
{
    deuce_assert(hasMinMax_);
    return max_;
}

double
Log2Histogram::bucketLo(unsigned i)
{
    return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double
Log2Histogram::bucketHi(unsigned i)
{
    return std::ldexp(1.0, static_cast<int>(i));
}

unsigned
Log2Histogram::numBuckets() const
{
    unsigned n = kBuckets;
    while (n > 0 && buckets_[n - 1] == 0) {
        --n;
    }
    return n;
}

double
Log2Histogram::percentile(double q) const
{
    deuce_assert(q >= 0.0 && q <= 1.0);
    if (empty()) {
        return 0.0;
    }
    // Index of the target sample in sorted order, then linear
    // interpolation inside the bucket that contains it.
    double target = q * static_cast<double>(count_);
    double seen = 0.0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        double c = static_cast<double>(buckets_[i]);
        if (c == 0.0) {
            continue;
        }
        if (seen + c >= target) {
            double frac = (target - seen) / c;
            double lo = bucketLo(i);
            double hi = bucketHi(i);
            if (hasMinMax_) {
                lo = std::max(lo, static_cast<double>(min_));
                hi = std::min(hi, static_cast<double>(max_));
            }
            return lo + frac * (hi - lo);
        }
        seen += c;
    }
    // Not reached: the buckets always sum to count_.
    return hasMinMax_ ? static_cast<double>(max_)
                      : bucketHi(numBuckets() - 1);
}

double
Log2Histogram::fractionAbove(double threshold) const
{
    if (empty()) {
        return 0.0;
    }
    double above = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        double c = static_cast<double>(buckets_[i]);
        double lo = bucketLo(i), hi = bucketHi(i);
        if (threshold < lo) {
            above += c;
        } else if (threshold < hi) {
            above += c * (hi - threshold) / (hi - lo);
        }
    }
    return above / static_cast<double>(count_);
}

Histogram::Histogram(std::string name, std::string desc,
                     const Log2Histogram &data)
    : Stat(std::move(name), std::move(desc)), data_(data)
{
}

void
Histogram::dumpText(std::ostream &os) const
{
    const Log2Histogram &h = data_;
    detail::statLine(os, name() + ".count", h.count(),
                     desc() + " (samples)");
    detail::statLine(os, name() + ".mean", h.mean(),
                     desc() + " (mean)");
    if (!h.empty()) {
        detail::statLine(os, name() + ".min",
                         static_cast<double>(h.min()), desc() + " (min)");
        detail::statLine(os, name() + ".max",
                         static_cast<double>(h.max()), desc() + " (max)");
        detail::statLine(os, name() + ".p50", h.percentile(0.50),
                         desc() + " (median)");
        detail::statLine(os, name() + ".p95", h.percentile(0.95),
                         desc() + " (95th percentile)");
        detail::statLine(os, name() + ".p99", h.percentile(0.99),
                         desc() + " (99th percentile)");
    }
}

std::string
Histogram::jsonValue() const
{
    const Log2Histogram &h = data_;
    std::ostringstream os;
    os << "{\"count\":" << detail::jsonNumber(h.count())
       << ",\"mean\":" << detail::jsonNumber(h.mean());
    if (!h.empty()) {
        os << ",\"min\":"
           << detail::jsonNumber(static_cast<double>(h.min()))
           << ",\"max\":"
           << detail::jsonNumber(static_cast<double>(h.max()))
           << ",\"p50\":" << detail::jsonNumber(h.percentile(0.50))
           << ",\"p95\":" << detail::jsonNumber(h.percentile(0.95))
           << ",\"p99\":" << detail::jsonNumber(h.percentile(0.99));
        os << ",\"buckets\":[";
        bool first = true;
        for (unsigned i = 0; i < h.numBuckets(); ++i) {
            if (h.bucketCount(i) == 0) {
                continue;
            }
            if (!first) {
                os << ',';
            }
            first = false;
            os << "[" << detail::jsonNumber(Log2Histogram::bucketLo(i))
               << "," << detail::jsonNumber(h.bucketCount(i)) << "]";
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

} // namespace obs
} // namespace deuce
