#include "common/thread_pool.hpp"

#include <cstdlib>
#include <memory>

#include "common/error.hpp"

namespace tdp {

namespace {

/// A spin-wait hint: lets the sibling hyperthread run and keeps the spin
/// from flooding the memory system with loads.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  TDP_REQUIRE(threads >= 1, "a pool needs at least the calling thread");
  workers_.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Spinning workers read the flag; parked ones test it under the mutex.
  stop_.store(true);
  { std::lock_guard<std::mutex> lock(mutex_); }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

template <typename Ready>
void ThreadPool::await(Ready ready, std::condition_variable& cv,
                       std::atomic<std::size_t>& parked) {
  // Every 64 pauses: check the window, and yield. A scheduler that does
  // not balance load (a cpuset with sched_load_balance = 0) can wake a
  // worker onto the caller's CPU; spinning there without yielding would
  // take the caller's time for the whole window.
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    for (int spin = 0; spin < 64; ++spin) {
      if (ready()) return;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() - start >= kSpinWindow) break;
    std::this_thread::yield();
  }
  // Park. Raising `parked` before testing `ready` (both sequentially
  // consistent) pairs with the notifier's change-then-read-`parked`:
  // either the notifier sees this thread parked and takes the mutex to
  // wake it, or this thread's test sees the change.
  std::unique_lock<std::mutex> lock(mutex_);
  parked.fetch_add(1);
  cv.wait(lock, ready);
  parked.fetch_sub(1);
}

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // A batch submitted while another holds the pool (another caller's, or
  // a nested one from inside a task) runs inline on its caller: every
  // index still runs exactly once, so no result moves.
  if (workers_.empty() || count == 1 ||
      busy_.exchange(true, std::memory_order_acquire)) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // The batch is closed with no worker inside: its fields are ours. Index
  // 0 is the caller's: workers claim from 1.
  task_ = &fn;
  task_count_ = count;
  next_index_.store(1, std::memory_order_relaxed);
  error_ = nullptr;
  error_index_ = 0;
  const std::uint64_t epoch = (batch_.load() >> kEpochShift) + 1;
  batch_.store(epoch << kEpochShift);  // open, nobody joined
  if (parked_workers_.load() != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    work_cv_.notify_all();
  }
  run_index(0);
  drain_batch();
  // Every index is claimed: shut out late joiners, then wait for the
  // workers still running theirs.
  batch_.fetch_or(kClosed);
  await([this] { return (batch_.load() & kJoinedMask) == 0; }, done_cv_,
        parked_callers_);
  const std::exception_ptr error = std::move(error_);
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::drain_batch() {
  const std::size_t count = task_count_;
  for (;;) {
    const std::size_t index =
        next_index_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count) return;
    run_index(index);
  }
}

void ThreadPool::run_index(std::size_t index) {
  try {
    (*task_)(index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_ || index < error_index_) {
      error_ = std::current_exception();
      error_index_ = index;
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;  // epoch of the last batch this worker saw
  for (;;) {
    await(
        [&] {
          return stop_.load() || (batch_.load() >> kEpochShift) != seen;
        },
        work_cv_, parked_workers_);
    if (stop_.load()) return;
    // Join while the batch is open; a closed one has no index left.
    std::uint64_t word = batch_.load();
    while ((word & kClosed) == 0) {
      if (!batch_.compare_exchange_weak(word, word + 1)) continue;
      drain_batch();
      const std::uint64_t left = batch_.fetch_sub(1);
      if ((left & kClosed) != 0 && (left & kJoinedMask) == 1 &&
          parked_callers_.load() != 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
      break;
    }
    seen = word >> kEpochShift;
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
