/**
 * @file
 * Work-stealing thread pool implementation.
 */

#include "common/thread_pool.hh"

#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/cli_parse.hh"
#include "common/logging.hh"

namespace deuce
{

unsigned
ThreadPool::defaultThreadCount()
{
    const char *env = std::getenv("DEUCE_BENCH_THREADS");
    if (env != nullptr && *env != '\0') {
        std::optional<uint64_t> n =
            parseUnsigned(env, std::numeric_limits<unsigned>::max());
        if (!n) {
            deuce_fatal("DEUCE_BENCH_THREADS must be a base-10 worker "
                        "count, got \"" + std::string(env) + "\"");
        }
        if (*n > 0) {
            return static_cast<unsigned>(*n);
        }
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = defaultThreadCount();
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.push_back(std::make_unique<WorkerQueue>());
    }
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        threads_.emplace_back([this, i] { workerLoop(i); });
    }
}

ThreadPool::~ThreadPool()
{
    try {
        wait();
    } catch (...) {
        // Destructor must not throw; errors were the caller's to
        // collect via wait().
    }
    {
        std::lock_guard<std::mutex> lk(stateMu_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread &t : threads_) {
        t.join();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    unsigned target =
        static_cast<unsigned>(nextQueue_++ % workers_.size());
    {
        std::lock_guard<std::mutex> lk(workers_[target]->mu);
        workers_[target]->tasks.push_back(std::move(task));
    }
    {
        std::lock_guard<std::mutex> lk(stateMu_);
        ++queuedHint_;
        ++unfinished_;
    }
    wakeCv_.notify_one();
}

bool
ThreadPool::tryAcquire(unsigned self, std::function<void()> &out)
{
    {
        WorkerQueue &own = *workers_[self];
        std::lock_guard<std::mutex> lk(own.mu);
        if (!own.tasks.empty()) {
            out = std::move(own.tasks.back());
            own.tasks.pop_back();
            return true;
        }
    }
    for (size_t k = 1; k < workers_.size(); ++k) {
        WorkerQueue &victim =
            *workers_[(self + k) % workers_.size()];
        std::lock_guard<std::mutex> lk(victim.mu);
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.front());
            victim.tasks.pop_front();
            steals_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::runTask(std::function<void()> &task)
{
    std::exception_ptr err;
    try {
        task();
    } catch (...) {
        err = std::current_exception();
    }
    tasksExecuted_.fetch_add(1, std::memory_order_relaxed);
    bool done;
    {
        std::lock_guard<std::mutex> lk(stateMu_);
        if (err && !firstError_) {
            firstError_ = err;
        }
        done = (--unfinished_ == 0);
    }
    if (done) {
        doneCv_.notify_all();
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        std::function<void()> task;
        if (tryAcquire(self, task)) {
            {
                std::lock_guard<std::mutex> lk(stateMu_);
                --queuedHint_;
            }
            runTask(task);
            continue;
        }
        std::unique_lock<std::mutex> lk(stateMu_);
        if (stop_) {
            return;
        }
        // queuedHint_ is decremented only after a successful acquire,
        // so hint > 0 with empty deques is a transient that just
        // re-scans; hint == 0 with a queued task cannot outlast the
        // submitter's notify (it increments under this same mutex).
        wakeCv_.wait(lk,
                     [this] { return stop_ || queuedHint_ > 0; });
        if (stop_) {
            return;
        }
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(stateMu_);
    doneCv_.wait(lk, [this] { return unfinished_ == 0; });
    if (firstError_) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        lk.unlock();
        std::rethrow_exception(err);
    }
}

void
ThreadPool::parallelFor(uint64_t n,
                        const std::function<void(uint64_t)> &body,
                        unsigned threads)
{
    if (threads == 0) {
        threads = defaultThreadCount();
    }
    if (threads == 1 || n <= 1) {
        for (uint64_t i = 0; i < n; ++i) {
            body(i);
        }
        return;
    }
    ThreadPool pool(threads);
    for (uint64_t i = 0; i < n; ++i) {
        pool.submit([&body, i] { body(i); });
    }
    pool.wait();
}

} // namespace deuce
