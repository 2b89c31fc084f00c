/**
 * @file
 * Fixed-size thread pool with deterministic batch evaluation, and
 * `FanOut`, the one path every pass's parallel section takes onto it.
 *
 * `ThreadPool::map()` evaluates a batch of independent tasks across the
 * workers (the calling thread participates) and returns the results
 * ordered by task index, so callers see the same result vector
 * regardless of how many threads executed the batch or how the
 * scheduler interleaved them. Exceptions thrown by tasks are captured
 * and rethrown — the one with the lowest task index wins, again
 * independent of thread count.
 *
 * Passes never build pools themselves: raced routing trials, SR-CaQR
 * variants, commuting candidate schedules, ESP version selection and
 * shot batches all go through `FanOut`, which runs a section serially
 * or on a pool — the borrowed one, else `ThreadPool::shared()` — and
 * carries the caller's request binding onto whichever thread runs each
 * task.
 */
#ifndef CAQR_UTIL_THREAD_POOL_H
#define CAQR_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/options.h"
#include "util/trace.h"

namespace caqr::util {

/// Fixed-size worker pool. Queued tasks are drained before destruction
/// joins the workers, so no submitted work is ever dropped.
class ThreadPool
{
  public:
    /// Spawns @p num_workers workers; negative = one per hardware
    /// thread. A zero-worker pool is valid: submit() and map() then run
    /// every task inline on the calling thread.
    explicit ThreadPool(int num_workers = -1);

    /// Drains the queue, then joins all workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Number of worker threads (excludes the calling thread).
    int size() const { return static_cast<int>(workers_.size()); }

    /// Worker threads every ThreadPool of this process has started so
    /// far; the difference across a call counts the threads it created.
    static long long workers_started();

    /// Total evaluation threads for a user-facing `num_threads` knob:
    /// positive values pass through, zero/negative resolve to the
    /// hardware thread count (at least 1).
    static int resolve_threads(int requested);

    /// The process-wide pool of `resolve_threads(0) - 1` workers that
    /// runs every parallel section given no pool of its own. Built on
    /// first use; lives until static destruction.
    static ThreadPool& shared();

    /// Schedules @p fn and returns a future for its result. Exceptions
    /// propagate through the future.
    template <typename Fn>
    auto
    submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>&>>
    {
        using R = std::invoke_result_t<std::decay_t<Fn>&>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> result = task->get_future();
        enqueue([task] { (*task)(); });
        return result;
    }

    /**
     * Evaluates fn(0..n-1) across the workers plus the calling thread
     * and returns the results indexed by task — result ordering never
     * depends on thread count or scheduling. Blocks until the whole
     * batch finished; if any task threw, the exception with the lowest
     * task index is rethrown after the batch completes.
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn&& fn)
        -> std::vector<std::invoke_result_t<std::decay_t<Fn>&, std::size_t>>
    {
        using R = std::invoke_result_t<std::decay_t<Fn>&, std::size_t>;
        static_assert(std::is_default_constructible_v<R>,
                      "map results must be default-constructible");
        std::vector<R> results(n);
        if (n == 0) return results;
        if (workers_.empty() || n == 1) {
            for (std::size_t i = 0; i < n; ++i) {
                results[i] = fn(i);
            }
            return results;
        }

        struct Batch
        {
            std::atomic<std::size_t> next{0};
            std::atomic<std::size_t> done{0};
            std::size_t total = 0;
            std::mutex mutex;
            std::condition_variable all_done;
            std::vector<std::exception_ptr> errors;
        };
        auto batch = std::make_shared<Batch>();
        batch->total = n;
        batch->errors.resize(n);

        R* out = results.data();
        auto run = [batch, out, &fn] {
            for (;;) {
                const std::size_t i = batch->next.fetch_add(1);
                if (i >= batch->total) return;
                try {
                    out[i] = fn(i);
                } catch (...) {
                    batch->errors[i] = std::current_exception();
                }
                if (batch->done.fetch_add(1) + 1 == batch->total) {
                    std::lock_guard<std::mutex> lock(batch->mutex);
                    batch->all_done.notify_all();
                }
            }
        };
        // A straggler helper that wakes after the batch completed exits
        // via the index check without touching `out` or `fn`.
        const std::size_t helpers =
            std::min(n - 1, static_cast<std::size_t>(size()));
        for (std::size_t h = 0; h < helpers; ++h) enqueue(run);
        run();
        {
            std::unique_lock<std::mutex> lock(batch->mutex);
            batch->all_done.wait(lock, [&] {
                return batch->done.load() == batch->total;
            });
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (batch->errors[i]) std::rethrow_exception(batch->errors[i]);
        }
        return results;
    }

  private:
    /// Queues @p task; with zero workers, runs it inline instead.
    void enqueue(std::function<void()> task);
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable ready_;
    bool stop_ = false;
};

/**
 * One parallel section of a pass. Construction reads the thread budget,
 * the borrowed pool and the calling thread's request binding
 * (`trace::current_request()` / `current_capture()`); `map()` then runs
 * fn(0..n-1) and returns the results in index order:
 *  - serially on the calling thread when the budget resolves to one
 *    thread, n <= 1, or the pool it would use has no workers;
 *  - otherwise on the borrowed pool, or on `ThreadPool::shared()` when
 *    none is given.
 * Pools are sized only where they are built, so a budget above one
 * means "parallel", not a thread count. Every task runs inside a
 * `trace::RequestScope` of the caller's binding, so spans from pool
 * threads reach the owning request's capture. Results are bit-identical
 * on every path as long as the tasks are independent. Sections nest:
 * `ThreadPool::map` runs tasks on its caller too, so a task that opens
 * its own `FanOut` on the same pool drains that batch itself.
 */
class FanOut
{
  public:
    /// @p num_threads as in `CommonOptions` (1 = serial, anything else
    /// = parallel); @p pool may be null.
    FanOut(int num_threads, ThreadPool* pool);
    explicit FanOut(const CommonOptions& options)
        : FanOut(options.num_threads, options.pool)
    {
    }

    template <typename Fn>
    auto
    map(std::size_t n, Fn&& fn)
        -> std::vector<std::invoke_result_t<std::decay_t<Fn>&, std::size_t>>
    {
        if (parallel_ && n > 1) {
            ThreadPool& pool =
                borrowed_ != nullptr ? *borrowed_ : ThreadPool::shared();
            if (pool.size() > 0) {
                return pool.map(n, [&](std::size_t i) {
                    trace::RequestScope scope(request_, capture_);
                    return fn(i);
                });
            }
        }
        using R = std::invoke_result_t<std::decay_t<Fn>&, std::size_t>;
        std::vector<R> results;
        results.reserve(n);
        for (std::size_t i = 0; i < n; ++i) results.push_back(fn(i));
        return results;
    }

  private:
    bool parallel_;
    ThreadPool* borrowed_;
    const trace::RequestContext* request_;
    trace::RequestCapture* capture_;
};

}  // namespace caqr::util

#endif  // CAQR_UTIL_THREAD_POOL_H
