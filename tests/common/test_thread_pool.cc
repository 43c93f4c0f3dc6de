/**
 * @file
 * Tests for the work-stealing thread pool backing the sweep engine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace deuce
{
namespace
{

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i) {
            pool.submit([&count] { count.fetch_add(1); });
        }
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 10);
    }
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();
    pool.wait();
}

TEST(ThreadPool, PropagatesFirstTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&ran, i] {
            ran.fetch_add(1);
            if (i == 3) {
                throw std::runtime_error("task failed");
            }
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Remaining tasks still ran to completion.
    EXPECT_EQ(ran.load(), 8);
    // The error is consumed; the pool is reusable.
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    for (unsigned threads : {1u, 3u, 8u}) {
        std::vector<int> hits(257, 0);
        ThreadPool::parallelFor(
            hits.size(), [&hits](uint64_t i) { hits[i] += 1; },
            threads);
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257)
            << "threads=" << threads;
        for (int h : hits) {
            EXPECT_EQ(h, 1);
        }
    }
}

TEST(ThreadPool, ParallelForZeroIterations)
{
    bool ran = false;
    ThreadPool::parallelFor(0, [&ran](uint64_t) { ran = true; }, 4);
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    EXPECT_THROW(ThreadPool::parallelFor(
                     16,
                     [](uint64_t i) {
                         if (i == 7) {
                             throw std::runtime_error("boom");
                         }
                     },
                     4),
                 std::runtime_error);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv)
{
    ::setenv("DEUCE_BENCH_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    ::setenv("DEUCE_BENCH_THREADS", "0", 1);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
    ::setenv("DEUCE_BENCH_THREADS", "", 1);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
    ::unsetenv("DEUCE_BENCH_THREADS");
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPool, DefaultThreadCountRejectsMalformedEnv)
{
    for (const char *bad : {"4x", "-5", " 2", "two", "99999999999"}) {
        ::setenv("DEUCE_BENCH_THREADS", bad, 1);
        try {
            ThreadPool::defaultThreadCount();
            ADD_FAILURE() << "accepted " << bad;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("DEUCE_BENCH_THREADS"),
                      std::string::npos);
        }
    }
    ::unsetenv("DEUCE_BENCH_THREADS");
}

} // namespace
} // namespace deuce
