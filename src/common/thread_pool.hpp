// Work-sharing thread pool and deterministic parallel_for.
//
// Two kinds of batch run here. The batch workloads (cost sweeps,
// perturbation studies, multi-start estimation) are a few dozen
// independent solves of milliseconds to seconds each. The fleet's shard
// sweep is the other kind: every period, 64 tasks of ~2 µs each at 10k
// users, separated by ~70 µs of serial pricing. For the sweep, dispatch is
// the cost: a claim taken under a mutex and a condition-variable wake per
// batch cost more than the tasks they hand out. So the pool claims an
// index with one atomic fetch_add, and a worker that finishes a batch
// spins on the batch word for a fixed window (kSpinWindow), yielding every
// 64 pauses, before parking on a condition variable; the caller spins the
// same window for its stragglers. A window longer than the loop's serial
// gap means a period's sweep finds its workers awake. Spinning workers
// read the stop flag, so a pool joins at once.
//
// Determinism contract: parallel_for(n, fn) invokes fn(i) exactly once for
// every i in [0, n). Index 0 runs on the caller; which thread runs any
// other index is unspecified, so fn must only write to per-index state
// (the callers in core/estimation write into pre-sized result slots).
// Under that discipline results are bit-identical for any thread count,
// including 1.
#pragma once

#include <atomic>
#include <chrono>
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
  /// How long an idle worker, or a caller waiting for its batch's
  /// stragglers, spins before it parks. Longer than the fleet loop's
  /// serial gap between sweeps (~70 µs at 10k users), so consecutive
  /// periods' sweeps find the workers spinning.
  static constexpr std::chrono::microseconds kSpinWindow{200};

  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the participating caller).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Run fn(i) for every i in [0, count), distributing indices over the
  /// pool; blocks until all complete. Index 0 runs on the calling thread,
  /// so a task that needs the caller's warm caches goes there. The first
  /// exception (lowest index) is rethrown after the batch drains. The
  /// pool runs one batch at a time: a batch submitted while another holds
  /// it (another caller's, or a nested one from inside a task) runs inline
  /// on its caller.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claim-and-run loop shared by the joined workers and the caller.
  void drain_batch();
  /// Run one index of the current batch, keeping the lowest one's error.
  void run_index(std::size_t index);
  /// Spin on `ready` for kSpinWindow, then park on `cv` until it holds;
  /// `parked` is raised while parked so a notifier knows to wake.
  template <typename Ready>
  void await(Ready ready, std::condition_variable& cv,
             std::atomic<std::size_t>& parked);

  std::vector<std::thread> workers_;

  // The batch word: its epoch (bumped per batch), a closed bit and the
  // count of workers inside the batch. A worker joins by a compare-
  // exchange that needs the batch open, so it never reads the batch
  // fields below unless the batch they describe is still running; the
  // caller closes the batch once every index is claimed and returns when
  // the joined count drops to zero.
  static constexpr std::uint64_t kClosed = std::uint64_t{1} << 32;
  static constexpr std::uint64_t kJoinedMask = kClosed - 1;
  static constexpr int kEpochShift = 33;
  alignas(64) std::atomic<std::uint64_t> batch_{kClosed};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> parked_workers_{0};
  std::atomic<std::size_t> parked_callers_{0};
  /// Set while a caller's batch holds the pool.
  std::atomic<bool> busy_{false};

  // Written by the holding caller while the batch is closed.
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t task_count_ = 0;
  /// The batch's claim counter, on its own line: joined workers hammer it
  /// while idle ones spin on batch_.
  alignas(64) std::atomic<std::size_t> next_index_{0};

  alignas(64) std::mutex mutex_;  // parking and the batch's error
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::exception_ptr error_;      // guarded
  std::size_t error_index_ = 0;   // guarded
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

/// Run fn(i) for i in [0, n) on `threads` threads (0 = default), fn(0) on
/// the caller. threads<=1 or n<=1 runs inline on the caller with no pool
/// involvement. Uses the global pool when `threads` matches its size,
/// otherwise a transient pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace tdp
