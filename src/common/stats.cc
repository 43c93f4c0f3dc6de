/**
 * @file
 * Statistics accumulator implementation.
 */

#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace deuce
{

void
RunningStat::add(double x)
{
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0) {
        return;
    }
    if (count_ == 0) {
        *this = other;
        return;
    }
    uint64_t total = count_ + other.count_;
    double delta = other.mean_ - mean_;
    double w = static_cast<double>(other.count_) /
               static_cast<double>(total);
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) * w;
    mean_ += delta * w;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ = total;
}

double
RunningStat::min() const
{
    deuce_assert(count_ > 0);
    return min_;
}

double
RunningStat::max() const
{
    deuce_assert(count_ > 0);
    return max_;
}

double
RunningStat::variance() const
{
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

} // namespace deuce
