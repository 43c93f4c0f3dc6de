/**
 * @file
 * CounterPersistencePolicy: when does a volatile counter update reach
 * the durable metadata array?
 *
 * The policy tracks *dirtiness only* — which lines have counter state
 * newer than the durable array — and decides the flush schedule. The
 * counter values themselves live in the PersistDomain, which owns the
 * durable store (and the Merkle tree mirroring it). All state is
 * deterministic in the write order: pending lines are sorted into
 * address order whenever they are read out (pendingLines(),
 * drainPending()), whether they sit in the lazy policy's hash set or
 * the battery FIFO, so flush batches (and therefore metadata traffic
 * and tree update order) are bit-identical run to run.
 */

#ifndef DEUCE_PERSIST_PERSISTENCE_POLICY_HH
#define DEUCE_PERSIST_PERSISTENCE_POLICY_HH

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "persist/persist_config.hh"

namespace deuce
{

/** Flush scheduling for volatile counter state. */
class CounterPersistencePolicy
{
  public:
    virtual ~CounterPersistencePolicy() = default;

    /** Policy name for tables/stats ("write-through", ...). */
    virtual const char *name() const = 0;

    /**
     * Observe one counter update to @p line. Lines whose counters
     * become durable *now* are appended to @p flushed (in address
     * order for multi-line batches).
     */
    virtual void onCounterWrite(uint64_t line,
                                std::vector<uint64_t> &flushed) = 0;

    /** Lines dirtier than the durable array, in address order. */
    virtual std::vector<uint64_t> pendingLines() const = 0;

    /** Number of lines with volatile (unflushed) counter state. */
    virtual uint64_t dirtyCount() const = 0;

    /**
     * Append all pending lines to @p flushed and clear the pending
     * set (clean shutdown, or the battery drain at power loss).
     */
    virtual void drainPending(std::vector<uint64_t> &flushed) = 0;

    /**
     * True when residual energy (battery/capacitor) drains the
     * pending set at power loss, i.e. pending state is *effectively
     * durable* and a crash loses nothing.
     */
    virtual bool drainsOnPowerLoss() const { return false; }

    /**
     * Upper bound on how far a line's durable counter can lag its
     * live counter at any instant. Recovery searches candidate
     * counters within this window.
     */
    virtual uint64_t worstCaseWindow() const = 0;
};

/** Every counter update is persisted immediately. */
class WriteThroughPolicy : public CounterPersistencePolicy
{
  public:
    const char *name() const override { return "write-through"; }
    void onCounterWrite(uint64_t line,
                        std::vector<uint64_t> &flushed) override;
    std::vector<uint64_t> pendingLines() const override { return {}; }
    uint64_t dirtyCount() const override { return 0; }
    void drainPending(std::vector<uint64_t> &) override {}
    uint64_t worstCaseWindow() const override { return 0; }
};

/** Dirty counters bulk-flush every flushEpoch line writes. */
class LazyFlushPolicy : public CounterPersistencePolicy
{
  public:
    explicit LazyFlushPolicy(uint64_t flush_epoch);

    const char *name() const override { return "lazy"; }
    void onCounterWrite(uint64_t line,
                        std::vector<uint64_t> &flushed) override;
    std::vector<uint64_t> pendingLines() const override;
    uint64_t dirtyCount() const override { return dirty_.size(); }
    void drainPending(std::vector<uint64_t> &flushed) override;
    uint64_t worstCaseWindow() const override { return flushEpoch_; }

  private:
    uint64_t flushEpoch_;
    uint64_t writesSinceFlush_ = 0;
    /** Unordered: pendingLines() and drainPending() sort it. */
    std::unordered_set<uint64_t> dirty_;
};

/**
 * Capacitor-backed write queue: pending counter updates coalesce in a
 * small FIFO; overflow evicts the oldest entry to the array; residual
 * charge drains the queue at power loss (zero reuse window).
 */
class BatteryBackedPolicy : public CounterPersistencePolicy
{
  public:
    explicit BatteryBackedPolicy(unsigned queue_depth);

    const char *name() const override { return "battery"; }
    void onCounterWrite(uint64_t line,
                        std::vector<uint64_t> &flushed) override;
    std::vector<uint64_t> pendingLines() const override;
    uint64_t dirtyCount() const override { return queue_.size(); }
    void drainPending(std::vector<uint64_t> &flushed) override;
    bool drainsOnPowerLoss() const override { return true; }
    uint64_t worstCaseWindow() const override { return 0; }

  private:
    unsigned depth_;
    /** FIFO of distinct dirty lines (coalescing write combining). */
    std::vector<uint64_t> queue_;
};

/** Construct the policy selected by @p cfg. */
std::unique_ptr<CounterPersistencePolicy>
makePersistencePolicy(const PersistConfig &cfg);

} // namespace deuce

#endif // DEUCE_PERSIST_PERSISTENCE_POLICY_HH
