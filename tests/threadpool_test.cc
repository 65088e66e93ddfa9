// ThreadPool (src/common/threadpool.h): ParallelFor index coverage, the
// caller as a runner, back-to-back calls, waking parked workers, inline mode,
// and OPTIMUS_THREADS parsing.

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/threadpool.h"

namespace optimus {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsItemsOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);  // the caller alone: no threads spawned
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> order;  // no atomics needed: everything is inline
  pool.ParallelFor(5, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, CallerAndEveryWorkerRunItemsAtOnce) {
  // Four items each wait at a four-party barrier, so the call returns only if
  // four runners hold an item at the same time: the caller and all three
  // spawned workers. A pool that left the caller idle would hang here (the
  // test's timeout catches that).
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::barrier<> rendezvous(4);
  std::vector<std::thread::id> ran_on(4);
  pool.ParallelFor(4, [&](int64_t i) {
    ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
    rendezvous.arrive_and_wait();
  });
  const std::set<std::thread::id> runners(ran_on.begin(), ran_on.end());
  EXPECT_EQ(runners.size(), 4u);
  EXPECT_EQ(runners.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPoolTest, BackToBackCallsRunEachIndexOnce) {
  // Many short calls in a row: a worker that woke late for one call must not
  // claim indices of the next one, or run the previous call's function.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(9);
  for (int call = 0; call < 20000; ++call) {
    const int64_t n = 1 + call % 9;
    pool.ParallelFor(n, [&hits, call](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(call, std::memory_order_relaxed);
    });
    for (int64_t i = 0; i < 9; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].exchange(0), i < n ? call : 0)
          << "call " << call << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParkedWorkersWakeForEveryCall) {
  // Each cycle makes a call, idles longer than the spin so the workers block
  // in the kernel, makes a second call that has to wake them, and destroys
  // the pool with its workers parked. Every call's four items wait at a
  // four-party barrier, so a call returns only once all three workers woke
  // for it: a lost wake-up hangs the call or the destructor's join (the
  // test's timeout catches that).
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ThreadPool pool(4);
    std::barrier<> rendezvous(4);
    std::vector<std::atomic<int>> hits(4);
    auto meet = [&](int64_t i) {
      ++hits[static_cast<size_t>(i)];
      rendezvous.arrive_and_wait();
    };
    pool.ParallelFor(4, meet);
    std::this_thread::sleep_for(4 * ThreadPool::kSpin);
    pool.ParallelFor(4, meet);
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 2) << "cycle " << cycle << " index " << i;
    }
  }
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
  // An outer loop's items call the same pool's ParallelFor. Waiting for the
  // pool from inside one of its own items would wait on the caller itself;
  // the nested call must run inline on the calling runner instead.
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
  // A different pool's runners call this one concurrently: a call fans out
  // when the pool is free and runs serially on its caller when it is not.
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

  // Values that do not fit in an int are malformed, not wrapped: 2^32 + 2
  // would otherwise read as 2 and 2^31 as a negative count.
  ASSERT_EQ(setenv("OPTIMUS_THREADS", "4294967298", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), 1);

  ASSERT_EQ(setenv("OPTIMUS_THREADS", "2147483648", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), 1);

  ASSERT_EQ(unsetenv("OPTIMUS_THREADS"), 0);
  EXPECT_EQ(DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace optimus
