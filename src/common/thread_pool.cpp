#include "common/thread_pool.hpp"

#include <cstdlib>
#include <memory>

#include "common/error.hpp"

namespace tdp {

ThreadPool::ThreadPool(std::size_t threads) {
  TDP_REQUIRE(threads >= 1, "a pool needs at least the calling thread");
  workers_.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // A batch submitted while another holds the pool (another caller's,
    // or a nested one from inside a task) runs inline on its caller:
    // every index still runs exactly once, so no result moves.
    if (workers_.empty() || count == 1 || task_ != nullptr) {
      lock.unlock();
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    task_ = &fn;
    task_count_ = count;
    next_index_ = 0;
    pending_ = count;
    error_ = nullptr;
    error_index_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  drain_batch();
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  task_ = nullptr;
  task_count_ = 0;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::drain_batch() {
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t index = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (task_ == nullptr || next_index_ >= task_count_) return;
      index = next_index_++;
      fn = task_;
    }
    std::exception_ptr caught;
    try {
      (*fn)(index);
    } catch (...) {
      caught = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (caught && (!error_ || index < error_index_)) {
      error_ = caught;
      error_index_ = index;
    }
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    drain_batch();
  }
}

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

namespace {

std::size_t env_default_threads() {
  if (const char* env = std::getenv("TDP_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return hardware_threads();
}

std::mutex g_pool_mutex;
std::size_t g_default_threads = 0;  // 0 = not yet initialized
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

std::size_t default_thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_default_threads == 0) g_default_threads = env_default_threads();
  return g_default_threads;
}

void set_default_thread_count(std::size_t threads) {
  TDP_REQUIRE(threads >= 1, "thread count must be positive");
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_default_threads = threads;
  if (g_pool && g_pool->thread_count() != threads) g_pool.reset();
}

ThreadPool& global_pool() {
  const std::size_t threads = default_thread_count();
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool || g_pool->thread_count() != threads) {
    g_pool = std::make_unique<ThreadPool>(threads);
  }
  return *g_pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (threads == default_thread_count()) {
    global_pool().for_each_index(n, fn);
    return;
  }
  ThreadPool transient(threads);
  transient.for_each_index(n, fn);
}

}  // namespace tdp
