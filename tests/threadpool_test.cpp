/// Tests for the fixed-size thread pool behind the commuting QS-CaQR
/// search, raced routing and the service: task execution, deterministic
/// result ordering, exception propagation, batch reuse, and clean
/// shutdown — plus FanOut's serial / on-a-pool choice and the shared
/// pool it falls back to.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace caqr {
namespace {

using util::FanOut;
using util::ThreadPool;

TEST(ThreadPool, SubmitRunsTask)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2);
    auto future = pool.submit([] { return 7 * 6; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitRunsOnWorkerThread)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    auto future = pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_NE(future.get(), caller);
}

TEST(ThreadPool, MapKeepsSubmissionOrder)
{
    ThreadPool pool(4);
    const std::size_t n = 1000;
    const auto results =
        pool.map(n, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i], static_cast<int>(i * i));
    }
}

TEST(ThreadPool, MapUsesMultipleThreads)
{
    ThreadPool pool(3);
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    pool.map(64, [&](std::size_t) {
        const int now = ++concurrent;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --concurrent;
        return 0;
    });
    EXPECT_GT(peak.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesException)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("submit boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, MapRethrowsLowestIndexException)
{
    ThreadPool pool(4);
    try {
        pool.map(100, [](std::size_t i) -> int {
            if (i == 17 || i == 3 || i == 90) {
                throw std::runtime_error("task " + std::to_string(i));
            }
            return 0;
        });
        FAIL() << "map should have rethrown";
    } catch (const std::runtime_error& e) {
        // Deterministic winner: the lowest failing index, regardless of
        // which worker hit its exception first.
        EXPECT_STREQ(e.what(), "task 3");
    }
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(2);
    long long total = 0;
    for (int batch = 0; batch < 10; ++batch) {
        const auto results = pool.map(
            50, [batch](std::size_t i) {
                return static_cast<long long>(batch) * 50 +
                       static_cast<long long>(i);
            });
        total = std::accumulate(results.begin(), results.end(), total);
    }
    // sum of 0..499
    EXPECT_EQ(total, 499LL * 500 / 2);
}

TEST(ThreadPool, DestructionDrainsQueueAndJoins)
{
    std::atomic<int> executed{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&executed] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                ++executed;
            });
        }
        // Destructor must run every queued task before joining.
    }
    EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 0);
    const auto caller = std::this_thread::get_id();
    auto future = pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_EQ(future.get(), caller);
    const auto results =
        pool.map(8, [](std::size_t i) { return static_cast<int>(i) + 1; });
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], static_cast<int>(i) + 1);
    }
}

TEST(ThreadPool, MapEmptyAndSingleton)
{
    ThreadPool pool(2);
    EXPECT_TRUE(pool.map(0, [](std::size_t) { return 1; }).empty());
    const auto one = pool.map(1, [](std::size_t i) {
        return static_cast<int>(i) + 41;
    });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 41);
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(ThreadPool::resolve_threads(1), 1);
    EXPECT_EQ(ThreadPool::resolve_threads(7), 7);
    const int hw = ThreadPool::resolve_threads(0);
    EXPECT_GE(hw, 1);
    EXPECT_EQ(ThreadPool::resolve_threads(-3), hw);
}

TEST(ThreadPool, NegativeWorkerCountUsesHardware)
{
    ThreadPool pool(-1);
    EXPECT_GE(pool.size(), 1);
    auto future = pool.submit([] { return 1; });
    EXPECT_EQ(future.get(), 1);
}

// ---------------------------------------------------------------------
// FanOut: the one serial / on-a-pool decision
// ---------------------------------------------------------------------

/// Runs @p n tasks through @p fan_out and returns the set of threads
/// that ran them; results must come back in index order.
std::set<std::thread::id>
threads_used(FanOut& fan_out, std::size_t n)
{
    std::mutex mutex;
    std::set<std::thread::id> ids;
    const auto results = fan_out.map(n, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
        return static_cast<int>(i) * 3;
    });
    EXPECT_EQ(results.size(), n);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], static_cast<int>(i) * 3);
    }
    return ids;
}

TEST(FanOut, OneThreadRunsSeriallyOnCaller)
{
    ThreadPool pool(3);
    FanOut fan_out(1, &pool);
    const auto ids = threads_used(fan_out, 32);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(FanOut, SingleTaskRunsOnCaller)
{
    ThreadPool pool(3);
    FanOut fan_out(4, &pool);
    const auto ids = threads_used(fan_out, 1);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
    EXPECT_TRUE(threads_used(fan_out, 0).empty());
}

/// The threads @p pool's workers run on, found by occupying all of
/// them at once with tasks that wait for each other.
std::set<std::thread::id>
pool_workers(ThreadPool& pool)
{
    std::latch all_running(pool.size());
    std::vector<std::future<std::thread::id>> futures;
    for (int i = 0; i < pool.size(); ++i) {
        futures.push_back(pool.submit([&all_running] {
            all_running.arrive_and_wait();
            return std::this_thread::get_id();
        }));
    }
    std::set<std::thread::id> workers;
    for (auto& future : futures) workers.insert(future.get());
    return workers;
}

TEST(FanOut, BorrowedPoolRunsTheBatch)
{
    ThreadPool pool(3);
    const auto workers = pool_workers(pool);
    ASSERT_EQ(workers.size(), 3u);

    FanOut fan_out(4, &pool);
    for (const auto& id : threads_used(fan_out, 64)) {
        EXPECT_TRUE(id == std::this_thread::get_id() || workers.count(id))
            << "task ran outside the borrowed pool";
    }
}

TEST(FanOut, WorkerlessPoolRunsSerially)
{
    ThreadPool empty(0);
    FanOut fan_out(3, &empty);
    const auto before = ThreadPool::workers_started();
    const auto ids = threads_used(fan_out, 64);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
    EXPECT_EQ(ThreadPool::workers_started(), before);
}

TEST(FanOut, NoPoolRunsOnSharedPool)
{
    FanOut fan_out(4, nullptr);
    threads_used(fan_out, 8);  // builds the shared pool if no test has
    EXPECT_EQ(ThreadPool::shared().size(),
              ThreadPool::resolve_threads(0) - 1);
    const auto workers = pool_workers(ThreadPool::shared());

    const auto before = ThreadPool::workers_started();
    FanOut second(0, nullptr);
    for (const auto& id : threads_used(second, 64)) {
        EXPECT_TRUE(id == std::this_thread::get_id() || workers.count(id))
            << "task ran outside the shared pool";
    }
    EXPECT_EQ(ThreadPool::workers_started(), before);
}

TEST(FanOut, NestedSectionsComplete)
{
    ThreadPool one(1);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
        FanOut outer(4, pool);
        const auto results = outer.map(8, [pool](std::size_t i) {
            FanOut inner(4, pool);
            const auto parts = inner.map(16, [i](std::size_t j) {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                return static_cast<int>(i * 100 + j);
            });
            for (std::size_t j = 0; j < parts.size(); ++j) {
                EXPECT_EQ(parts[j], static_cast<int>(i * 100 + j));
            }
            return std::accumulate(parts.begin(), parts.end(), 0);
        });
        ASSERT_EQ(results.size(), 8u);
        for (std::size_t i = 0; i < results.size(); ++i) {
            // sum over j < 16 of (100 i + j)
            EXPECT_EQ(results[i], static_cast<int>(1600 * i + 120));
        }
    }
}

TEST(FanOut, PropagatesLowestIndexException)
{
    ThreadPool pool(3);
    FanOut fan_out(4, &pool);
    try {
        fan_out.map(16, [](std::size_t i) -> int {
            if (i == 5 || i == 9) {
                throw std::runtime_error("task " + std::to_string(i));
            }
            return 0;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
        EXPECT_EQ(std::string(error.what()), "task 5");
    }
}

}  // namespace
}  // namespace caqr
