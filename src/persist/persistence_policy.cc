/**
 * @file
 * Persistence policy implementations.
 */

#include "persist/persistence_policy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace deuce
{

const char *
persistPolicyName(PersistConfig::Policy policy)
{
    switch (policy) {
      case PersistConfig::Policy::WriteThrough:
        return "write-through";
      case PersistConfig::Policy::Lazy:
        return "lazy";
      case PersistConfig::Policy::BatteryBacked:
        return "battery";
    }
    return "?";
}

void
WriteThroughPolicy::onCounterWrite(uint64_t line,
                                   std::vector<uint64_t> &flushed)
{
    flushed.push_back(line);
}

LazyFlushPolicy::LazyFlushPolicy(uint64_t flush_epoch)
    : flushEpoch_(flush_epoch)
{
    deuce_assert(flush_epoch >= 1);
}

void
LazyFlushPolicy::onCounterWrite(uint64_t line,
                                std::vector<uint64_t> &flushed)
{
    dirty_.insert(line);
    if (++writesSinceFlush_ >= flushEpoch_) {
        drainPending(flushed);
    }
}

std::vector<uint64_t>
LazyFlushPolicy::pendingLines() const
{
    std::vector<uint64_t> lines(dirty_.begin(), dirty_.end());
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
LazyFlushPolicy::drainPending(std::vector<uint64_t> &flushed)
{
    const size_t first = flushed.size();
    flushed.insert(flushed.end(), dirty_.begin(), dirty_.end());
    std::sort(flushed.begin() + first, flushed.end());
    dirty_.clear();
    writesSinceFlush_ = 0;
}

BatteryBackedPolicy::BatteryBackedPolicy(unsigned queue_depth)
    : depth_(queue_depth)
{
    deuce_assert(queue_depth >= 1);
}

void
BatteryBackedPolicy::onCounterWrite(uint64_t line,
                                    std::vector<uint64_t> &flushed)
{
    // Write combining: an update to a line already queued coalesces
    // in place (the domain holds the value; dirtiness is unchanged).
    if (std::find(queue_.begin(), queue_.end(), line) != queue_.end()) {
        return;
    }
    queue_.push_back(line);
    if (queue_.size() > depth_) {
        flushed.push_back(queue_.front());
        queue_.erase(queue_.begin());
    }
}

std::vector<uint64_t>
BatteryBackedPolicy::pendingLines() const
{
    std::vector<uint64_t> lines = queue_;
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
BatteryBackedPolicy::drainPending(std::vector<uint64_t> &flushed)
{
    std::vector<uint64_t> lines = pendingLines();
    flushed.insert(flushed.end(), lines.begin(), lines.end());
    queue_.clear();
}

std::unique_ptr<CounterPersistencePolicy>
makePersistencePolicy(const PersistConfig &cfg)
{
    switch (cfg.policy) {
      case PersistConfig::Policy::WriteThrough:
        return std::make_unique<WriteThroughPolicy>();
      case PersistConfig::Policy::Lazy:
        return std::make_unique<LazyFlushPolicy>(cfg.flushEpoch);
      case PersistConfig::Policy::BatteryBacked:
        return std::make_unique<BatteryBackedPolicy>(cfg.queueDepth);
    }
    deuce_fatal("unknown persistence policy");
}

} // namespace deuce
