#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace tdp {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.for_each_index(kCount,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, IndexZeroRunsOnTheCaller) {
  // The fleet loop runs its pricer as index 0 beside the shards' draws:
  // it must stay on the thread whose caches hold the pricer's model, in
  // back-to-back batches (workers spinning) and after the workers parked.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int batch = 0; batch < 200; ++batch) {
    if (batch == 100) {
      std::this_thread::sleep_for(2 * ThreadPool::kSpinWindow);
    }
    std::thread::id first;
    std::atomic<int> ran{0};
    pool.for_each_index(65, [&](std::size_t i) {
      if (i == 0) first = std::this_thread::get_id();
      ran.fetch_add(1);
    });
    ASSERT_EQ(ran.load(), 65) << "batch " << batch;
    ASSERT_EQ(first, caller) << "batch " << batch;
  }
  // Index 0 throwing is the lowest index; the batch still drains.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.for_each_index(8,
                                   [&](std::size_t i) {
                                     ran.fetch_add(1);
                                     if (i == 0) throw NumericalError("zero");
                                   }),
               NumericalError);
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.for_each_index(50, [&](std::size_t i) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 20u * (49u * 50u / 2u));
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.for_each_index(100, [](std::size_t i) {
      if (i == 7 || i == 93) {
        throw NumericalError("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("task 7"), std::string::npos);
  }
  // The pool stays usable after a failed batch.
  std::atomic<int> ran{0};
  pool.for_each_index(10, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, BatchesSubmittedWhileThePoolIsBusyRunInline) {
  // Caller A's batch holds the pool until caller B's batch has started,
  // and every task submits a nested batch: B's batch and the nested ones
  // find the pool taken and run on their own callers. A throw fails the
  // test.
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 5;
  std::vector<std::atomic<int>> hits(2 * kOuter * kInner);
  const auto batch = [&](std::size_t caller,
                         const std::function<void()>& wait) {
    pool.for_each_index(kOuter, [&, caller](std::size_t i) {
      wait();
      pool.for_each_index(kInner, [&, caller, i](std::size_t j) {
        hits[(caller * kOuter + i) * kInner + j].fetch_add(1);
      });
    });
  };
  std::atomic<bool> a_holds_the_pool{false};
  std::atomic<bool> b_started{false};
  std::future<void> b = std::async(std::launch::async, [&] {
    while (!a_holds_the_pool.load()) std::this_thread::yield();
    batch(1, [&] { b_started.store(true); });
  });
  batch(0, [&] {
    a_holds_the_pool.store(true);
    while (!b_started.load() &&
           b.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      std::this_thread::yield();
    }
  });
  b.get();
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

/// Busy-waits for `duration`: a task, or a gap between batches, that keeps
/// its thread on the CPU the way the fleet's shard tasks and serial phases
/// do.
void spin_for(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ThreadPool, BackToBackBatchesAcrossTheSpinWindowRunEveryIndexOnce) {
  // The fleet sweep's shape: batches of 64 microsecond tasks, one after
  // another. The gaps between batches vary around the spin window: none,
  // a quarter of it (workers catch the next batch while spinning) and two
  // windows (workers park and are woken by the next batch).
  ThreadPool pool(4);
  constexpr std::size_t kBatches = 2000;
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  std::size_t bad_batches = 0;
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.for_each_index(kTasks, [&](std::size_t i) {
      spin_for(std::chrono::microseconds(1 + i % 3));
      hits[i].fetch_add(1);
    });
    bool once = true;
    for (const auto& h : hits) once = once && h.load() == 1;
    if (!once) ++bad_batches;
    if (batch % 16 == 15) {
      std::this_thread::sleep_for(2 * ThreadPool::kSpinWindow);
    } else if (batch % 4 == 1) {
      spin_for(ThreadPool::kSpinWindow / 4);
    }
  }
  EXPECT_EQ(bad_batches, 0u);
}

TEST(ThreadPool, BatchJoinedByParkedWorkersRethrowsTheLowestIndex) {
  ThreadPool pool(4);
  pool.for_each_index(8, [](std::size_t) {});
  for (int trial = 0; trial < 10; ++trial) {
    // Longer than the spin window: every worker has parked.
    std::this_thread::sleep_for(3 * ThreadPool::kSpinWindow);
    std::vector<std::atomic<int>> hits(64);
    try {
      pool.for_each_index(64, [&](std::size_t i) {
        hits[i].fetch_add(1);
        spin_for(std::chrono::microseconds(20));
        if (i == 5 || i == 40) {
          throw NumericalError("task " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "expected an exception";
    } catch (const NumericalError& e) {
      EXPECT_NE(std::string(e.what()).find("task 5"), std::string::npos)
          << e.what();
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "trial " << trial << " index " << i;
    }
  }
}

TEST(ThreadPool, JoinsWithoutWaitingOutTheSpinWindow) {
  // Right after a batch the workers are spinning. A pool whose spinning
  // workers missed the stop flag would join only once they parked, a spin
  // window later. Each case is timed against a baseline that has no spin
  // left to wait out, fastest of many runs, so a slow host or a sanitizer
  // build moves both sides alike.
  using Clock = std::chrono::steady_clock;
  const auto fastest = [](const std::function<Clock::duration()>& timed) {
    auto best = Clock::duration::max();
    for (int trial = 0; trial < 30; ++trial) best = std::min(best, timed());
    return best;
  };
  const auto destroy_after = [](std::chrono::microseconds idle) {
    auto pool = std::make_unique<ThreadPool>(4);
    pool->for_each_index(64, [](std::size_t) {});
    std::this_thread::sleep_for(idle);
    const auto start = Clock::now();
    pool.reset();
    return Clock::now() - start;
  };
  // Baseline: the workers have parked, so the stop wakes them at once.
  const auto parked = fastest([&] {
    return destroy_after(2 * ThreadPool::kSpinWindow);
  });
  const auto spinning = fastest([&] {
    return destroy_after(std::chrono::microseconds(0));
  });
  EXPECT_LT(spinning, parked + ThreadPool::kSpinWindow / 2);

  // parallel_for at a thread count other than the default builds, runs
  // and destroys a one-worker pool on every call. Baseline: the same pool
  // built and run, then destroyed once its worker has parked.
  std::atomic<std::size_t> ran{0};
  const auto count = [&](std::size_t) { ran.fetch_add(1); };
  const auto run_then_park = fastest([&] {
    auto start = Clock::now();
    auto pool = std::make_unique<ThreadPool>(2);
    pool->for_each_index(64, count);
    const auto built = Clock::now() - start;
    std::this_thread::sleep_for(2 * ThreadPool::kSpinWindow);
    start = Clock::now();
    pool.reset();
    return built + (Clock::now() - start);
  });
  const std::size_t original = default_thread_count();
  set_default_thread_count(4);
  const auto transient = fastest([&] {
    const auto start = Clock::now();
    parallel_for(64, count, 2);
    return Clock::now() - start;
  });
  set_default_thread_count(original);
  EXPECT_EQ(ran.load(), std::size_t{60} * 64);
  EXPECT_LT(transient, run_then_park + ThreadPool::kSpinWindow / 2);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.for_each_index(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), PreconditionError);
}

TEST(ParallelFor, MatchesSerialAccumulation) {
  constexpr std::size_t kCount = 256;
  std::vector<double> parallel_out(kCount, 0.0);
  std::vector<double> serial_out(kCount, 0.0);
  const auto body = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 1.0;
  };
  parallel_for(kCount, [&](std::size_t i) { parallel_out[i] = body(i); }, 4);
  parallel_for(kCount, [&](std::size_t i) { serial_out[i] = body(i); }, 1);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelFor, DefaultThreadCountIsAdjustable) {
  const std::size_t original = default_thread_count();
  set_default_thread_count(3);
  EXPECT_EQ(default_thread_count(), 3u);
  EXPECT_EQ(global_pool().thread_count(), 3u);
  set_default_thread_count(original);
  EXPECT_EQ(default_thread_count(), original);
}

TEST(ParallelFor, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1u);
}

}  // namespace
}  // namespace tdp
