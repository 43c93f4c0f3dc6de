/**
 * @file
 * TraceSource adapters that feed a pre-generated Stream to
 * TimingSimulator::run.
 */

#ifndef PERFBENCH_SOURCES_HH
#define PERFBENCH_SOURCES_HH

#include "bench.hh"

namespace perfbench
{

/** Events one at a time, once. */
class OnceSource : public deuce::TraceSource
{
  public:
    explicit OnceSource(const Stream &s) : s_(s) {}

    bool
    next(TraceEvent &out) override
    {
        if (pos_ == s_.events.size()) {
            return false;
        }
        out = s_.events[pos_++];
        return true;
    }

  private:
    const Stream &s_;
    std::size_t pos_ = 0;
};

/**
 * Cycles the stream with rising instruction counts, takes one
 * timestamp per event (the gap between two next() calls is the
 * simulator's time on the previous event), and ends at the first
 * slice boundary past the deadline.
 */
class TimedSource : public deuce::TraceSource
{
  public:
    /** @param rotate move round the CPUs every kSlicesPerCpu slices */
    TimedSource(const Stream &s, uint64_t deadline, SliceClock &slices,
                LatencyWindows *lat, std::size_t start = 0,
                bool rotate = false)
        : s_(s), deadline_(deadline), slices_(slices), lat_(lat),
          pos_(start), rotate_(rotate)
    {}

    bool
    next(TraceEvent &out) override
    {
        uint64_t t = nowNs();
        if (served_ > 0) {
            if (lat_) {
                lat_->add(t - last_);
            }
            if (slices_.add(1, t)) {
                if (t >= deadline_) {
                    return false;
                }
                if (rotate_ && slices_.slices() % kSlicesPerCpu == 0) {
                    rotateCpu();
                    t = nowNs();
                    slices_.start(t);
                }
            }
        } else {
            if (rotate_) {
                rotateCpu();
                t = nowNs();
            }
            slices_.start(t);
        }
        last_ = t;
        out = s_.events[pos_];
        out.icount += offset_;
        if (++pos_ == s_.events.size()) {
            pos_ = 0;
            offset_ += s_.icountSpan;
        }
        ++served_;
        return true;
    }

    /** Index of the next event of the pass. */
    std::size_t pos() const { return pos_; }

  private:
    const Stream &s_;
    uint64_t deadline_;
    SliceClock &slices_;
    LatencyWindows *lat_;
    std::size_t pos_;
    bool rotate_;
    uint64_t offset_ = 0;
    uint64_t served_ = 0;
    uint64_t last_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SOURCES_HH
