#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <numeric>
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
