/**
 * @file
 * Work-stealing thread pool for batching independent simulation work.
 *
 * The sweep engine (sim/sweep.hh) runs every (benchmark, scheme) cell
 * of a figure or table as one task; cells vary in cost by the event
 * budget of their benchmark, so idle workers steal queued cells from
 * busy ones instead of waiting behind a static partition.
 *
 * Tasks are distributed round-robin across per-worker deques at
 * submission. A worker pops from the back of its own deque (LIFO, hot
 * in cache) and steals from the front of a victim's deque (FIFO, the
 * oldest and typically largest remaining item).
 *
 * The pool makes no ordering guarantees; callers that need
 * deterministic results must make each task independent and write to
 * a pre-assigned slot (which is exactly what the sweep engine does).
 */

#ifndef DEUCE_COMMON_THREAD_POOL_HH
#define DEUCE_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace deuce
{

/** Fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 selects defaultThreadCount().
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Safe to call from the owning thread only. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. If any task
     * threw, rethrows the first captured exception (remaining tasks
     * still run to completion first).
     */
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Tasks run to completion so far. Plain counters the obs stat
     * registry reads (obs/registry.hh registerStats); relaxed — an
     * in-flight dump may be one task behind.
     */
    uint64_t tasksExecuted() const
    {
        return tasksExecuted_.load(std::memory_order_relaxed);
    }

    /** Tasks a worker took from another worker's deque. */
    uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /**
     * Worker count used when a caller passes 0: the
     * DEUCE_BENCH_THREADS environment variable if set and positive,
     * otherwise std::thread::hardware_concurrency(). A malformed
     * value (see parseUnsigned()) is a fatal error.
     */
    static unsigned defaultThreadCount();

    /**
     * Run body(0..n-1) across @p threads workers (0 = default) and
     * block until all iterations finish. Iterations must be
     * independent; exceptions propagate like wait(). With one worker
     * (or n <= 1) the body runs inline on the calling thread.
     */
    static void parallelFor(uint64_t n,
                            const std::function<void(uint64_t)> &body,
                            unsigned threads = 0);

  private:
    /** One worker's task deque; stolen from under its own lock. */
    struct WorkerQueue
    {
        std::mutex mu;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(unsigned self);
    bool tryAcquire(unsigned self, std::function<void()> &out);
    void runTask(std::function<void()> &task);

    std::vector<std::unique_ptr<WorkerQueue>> workers_;
    std::vector<std::thread> threads_;

    /** Guards the counters below plus stop/error state. */
    std::mutex stateMu_;
    std::condition_variable wakeCv_; ///< workers sleep here
    std::condition_variable doneCv_; ///< wait() sleeps here
    uint64_t queuedHint_ = 0;  ///< tasks believed queued (not started)
    uint64_t unfinished_ = 0;  ///< submitted but not yet completed
    bool stop_ = false;
    std::exception_ptr firstError_;

    uint64_t nextQueue_ = 0; ///< round-robin submission cursor

    std::atomic<uint64_t> tasksExecuted_{0};
    std::atomic<uint64_t> steals_{0};
};

} // namespace deuce

#endif // DEUCE_COMMON_THREAD_POOL_HH
