// Work-sharing thread pool and deterministic parallel_for.
//
// The batch workloads in this repo (cost sweeps, perturbation studies,
// multi-start estimation) are a few dozen independent convex solves, each
// taking milliseconds to seconds. A pool with a mutex-guarded chunked index
// claim is therefore the right machinery: claim overhead is nanoseconds
// against millisecond tasks, and the coarse locking makes the scheduling
// logic obviously race-free under TSan.
//
// Determinism contract: parallel_for(n, fn) invokes fn(i) exactly once for
// every i in [0, n). Which thread runs which index is unspecified, so fn
// must only write to per-index state (the callers in core/estimation write
// into pre-sized result slots). Under that discipline results are
// bit-identical for any thread count, including 1.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tdp {

/// A fixed-size pool. `threads` counts the caller: ThreadPool(4) spawns 3
/// workers and the thread calling for_each_index participates as the 4th.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the participating caller).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Run fn(i) for every i in [0, count), distributing indices over the
  /// pool; blocks until all complete. The first exception (lowest index)
  /// is rethrown after the batch drains. The pool runs one batch at a
  /// time: a batch submitted while another holds it (another caller's, or
  /// a nested one from inside a task) runs inline on its caller.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claim-and-run loop shared by workers and the caller.
  void drain_batch();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;  // guarded
  std::size_t task_count_ = 0;                              // guarded
  std::size_t next_index_ = 0;                              // guarded
  std::size_t pending_ = 0;                                 // guarded
  std::uint64_t generation_ = 0;                            // guarded
  std::exception_ptr error_;                                // guarded
  std::size_t error_index_ = 0;                             // guarded
  bool stop_ = false;                                       // guarded
};

/// max(1, std::thread::hardware_concurrency()).
std::size_t hardware_threads();

/// Process-wide default parallelism: the TDP_THREADS environment variable
/// when set to a positive integer, otherwise hardware_threads(). Adjustable
/// at runtime (tests pin it to exercise both serial and parallel paths).
std::size_t default_thread_count();
void set_default_thread_count(std::size_t threads);

/// The shared pool sized to default_thread_count() (resized lazily when the
/// default changes). Created on first use.
ThreadPool& global_pool();

/// Run fn(i) for i in [0, n) on `threads` threads (0 = default). threads<=1
/// or n<=1 runs inline on the caller with no pool involvement. Uses the
/// global pool when `threads` matches its size, otherwise a transient pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace tdp
