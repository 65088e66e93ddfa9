// ThreadPool (src/common/threadpool.h): task execution, ParallelFor index
// coverage, inline mode, and OPTIMUS_THREADS parsing.

#include <atomic>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/threadpool.h"

namespace optimus {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, InlinePoolRunsTasksImmediately) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0);  // no threads spawned
  int count = 0;                     // no atomic needed: everything is inline
  pool.Submit([&count] { ++count; });
  EXPECT_EQ(count, 1);
  pool.Wait();
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(static_cast<int64_t>(hits.size()),
                   [&hits](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForWithMoreThreadsThanItems) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&hits](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndNegativeAreNoOps) {
  ThreadPool pool(2);
  int count = 0;
  pool.ParallelFor(0, [&count](int64_t) { ++count; });
  pool.ParallelFor(-5, [&count](int64_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 3; ++wave) {
    pool.ParallelFor(50, [&count](int64_t) { ++count; });
  }
  EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPoolTest, NestedParallelForFromAWorkerRunsInline) {
  // An outer loop's tasks call the same pool's ParallelFor. Waiting for the
  // pool to drain from inside one of its own tasks would never return; the
  // nested call must run inline on the calling worker instead.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 5);
  pool.ParallelFor(8, [&](int64_t outer) {
    pool.ParallelFor(5, [&](int64_t inner) {
      ++hits[static_cast<size_t>(outer * 5 + inner)];
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // A different pool's workers still fan out to this one normally.
  ThreadPool other(2);
  std::atomic<int> count{0};
  other.ParallelFor(4, [&](int64_t) {
    pool.ParallelFor(3, [&count](int64_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 12);
}

TEST(DefaultThreadCountTest, ParsesEnvironment) {
  ASSERT_EQ(setenv("OPTIMUS_THREADS", "6", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), 6);

  ASSERT_EQ(setenv("OPTIMUS_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), 1);

  ASSERT_EQ(setenv("OPTIMUS_THREADS", "0", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), 1);

  ASSERT_EQ(unsetenv("OPTIMUS_THREADS"), 0);
  EXPECT_EQ(DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace optimus
