#include "util/thread_pool.h"

#include <algorithm>

namespace caqr::util {

namespace {

std::atomic<long long> g_workers_started{0};

}  // namespace

ThreadPool::ThreadPool(int num_workers)
{
    if (num_workers < 0) {
        num_workers = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(static_cast<std::size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    g_workers_started.fetch_add(num_workers, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    ready_.notify_all();
    for (auto& worker : workers_) worker.join();
}

long long
ThreadPool::workers_started()
{
    return g_workers_started.load(std::memory_order_relaxed);
}

int
ThreadPool::resolve_threads(int requested)
{
    if (requested > 0) return requested;
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

FanOut::FanOut(int num_threads, ThreadPool* pool)
    : threads_(ThreadPool::resolve_threads(num_threads)),
      borrowed_(pool != nullptr && pool->size() > 0 ? pool : nullptr),
      request_(trace::current_request()),
      capture_(trace::current_capture())
{
}

ThreadPool*
FanOut::pool_for(std::size_t n)
{
    if (threads_ == 1) return nullptr;
    if (borrowed_ != nullptr) return borrowed_;
    if (transient_ == nullptr) {
        const std::size_t threads =
            std::min(static_cast<std::size_t>(threads_), n);
        transient_ =
            std::make_unique<ThreadPool>(static_cast<int>(threads) - 1);
    }
    return transient_.get();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    ready_.notify_one();
}

void
ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stop requested and fully drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

}  // namespace caqr::util
