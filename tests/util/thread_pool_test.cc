#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace tasfar {
namespace {

// Set on the thread a test calls ParallelFor from.
thread_local bool tls_is_caller = false;

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](size_t) { ++calls; });  // begin > end.
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), 3, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(4);
  std::vector<int> order;  // Unsynchronized: valid only if run inline.
  pool.ParallelFor(2, 6, 100, [&](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5}));
}

TEST(ThreadPoolTest, GrainZeroIsTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(0, 64, 0, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(ThreadPoolTest, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool0(0);
  ThreadPool pool1(1);
  EXPECT_EQ(pool0.num_threads(), 1u);
  EXPECT_EQ(pool1.num_threads(), 1u);
  std::vector<int> order;
  pool1.ParallelFor(0, 5, 1, [&](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionOnInlinePathPropagatesToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 4, 1,
                                [&](size_t) {
                                  throw std::runtime_error("inline boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(0, 8, 1,
                                [&](size_t) {
                                  throw std::runtime_error("first");
                                }),
               std::runtime_error);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 8, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnWorkers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  // If the nested region re-entered the queue this could deadlock with all
  // workers blocked waiting; the inline rule makes it finish.
  pool.ParallelFor(0, 16, 1, [&](size_t i) {
    pool.ParallelFor(0, 16, 1, [&](size_t j) { ++hits[i * 16 + j]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedRegionInACallerChunkRunsInline) {
  // The caller runs chunks of its own region and counts as a worker while
  // it does, so a region nested in one of its chunks runs inline on it, in
  // ascending order. The other chunks wait (a few seconds at most) until
  // the caller has entered one, so the caller always gets a chunk.
  ThreadPool pool(4);
  tls_is_caller = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> caller_entered{false};
  std::atomic<int> nested_off_caller{0};
  std::vector<std::vector<size_t>> orders;  // Written only on the caller.
  pool.ParallelFor(0, 16, 1, [&](size_t) {
    if (!tls_is_caller) {
      while (!caller_entered.load() &&
             std::chrono::steady_clock::now() < deadline) {
      }
      return;
    }
    caller_entered = true;
    std::vector<size_t> order;  // Unsynchronized: valid only if inline.
    pool.ParallelFor(0, 8, 1, [&](size_t j) {
      if (!tls_is_caller) ++nested_off_caller;
      order.push_back(j);
    });
    orders.push_back(order);
  });
  tls_is_caller = false;
  EXPECT_TRUE(caller_entered.load());
  EXPECT_EQ(nested_off_caller.load(), 0);
  ASSERT_FALSE(orders.empty());
  for (const std::vector<size_t>& order : orders) {
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  }
}

TEST(ThreadPoolTest, CallerFinishesItsRegionWhileWorkersAreBusy) {
  // A region started from a background thread holds every worker, and that
  // thread, on a latch. The main thread's region must still complete, on
  // the main thread alone, before the latch is released. The latch gives
  // up at a deadline, so a caller that waits for workers fails the test
  // instead of hanging it.
  constexpr size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::mutex mu;
  std::condition_variable cv;
  size_t held = 0;
  bool released = false;
  bool gave_up = false;
  auto hold = [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++held;
    cv.notify_all();
    if (!cv.wait_until(lock, deadline, [&] { return released; })) {
      gave_up = true;
    }
  };
  std::vector<size_t> out(64);
  {
    BackgroundThread holder("holder", [&] {
      pool.ParallelFor(0, 4 * kWorkers, 1, hold);
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_until(lock, deadline, [&] { return held > kWorkers; });
    }
    pool.ParallelFor(0, out.size(), 1, [&](size_t i) { out[i] = i * i; });
    {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_FALSE(gave_up) << "the main region waited for held workers";
      released = true;
    }
    cv.notify_all();
  }
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, DisjointWritesAreDeterministicAcrossThreadCounts) {
  auto run = [](size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(512);
    pool.ParallelFor(0, out.size(), 1, [&](size_t i) {
      double v = static_cast<double>(i) * 0.37;
      for (int r = 0; r < 20; ++r) v = v * 1.000001 + 0.5;
      out[i] = v;
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(GlobalPoolTest, SetNumThreadsControlsGetNumThreads) {
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3u);
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1u);
  SetNumThreads(0);  // Restore the default for other tests.
  EXPECT_GE(GetNumThreads(), 1u);
}

TEST(GlobalPoolTest, GlobalParallelForSums) {
  SetNumThreads(4);
  std::vector<size_t> out(100);
  ParallelFor(0, out.size(), 1, [&](size_t i) { out[i] = i * i; });
  size_t total = std::accumulate(out.begin(), out.end(), size_t{0});
  size_t expect = 0;
  for (size_t i = 0; i < out.size(); ++i) expect += i * i;
  EXPECT_EQ(total, expect);
  SetNumThreads(0);
}

}  // namespace
}  // namespace tasfar
