// A small fork-join thread pool for deterministic parallelism.
//
// The library's parallel call sites (sweep cells and repeats, per-arrival speed
// pre-run sampling, per-job stepping, the events engine's per-job epoch walk,
// and model refits) are embarrassingly
// parallel: each unit of work owns its state — in particular its own split
// RNG — and writes its result to an index-owned slot. Under that contract,
// running the units on N threads and committing results in index order is
// bitwise identical to the serial path, for any N. The pool provides the
// mechanics; the contract is the caller's.
//
// The calling thread is one of the pool's runners: ThreadPool(N) spawns N - 1
// workers, and ParallelFor() runs items on the caller as well, so N runners
// never oversubscribe an N-core host. Pools constructed with num_threads <= 1
// spawn no threads at all and ParallelFor() degenerates to a plain loop, so
// single-threaded behavior is exactly the pre-pool code.
//
// Items must not throw: an exception escaping a worker thread terminates the
// process (as it would from any detached std::thread), and one escaping the
// caller leaves its call in flight.

#ifndef SRC_COMMON_THREADPOOL_H_
#define SRC_COMMON_THREADPOOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace optimus {

// Thread count used when a caller asks for the environment default: the value
// of OPTIMUS_THREADS when set to an integer in [1, INT_MAX], otherwise 1
// (serial). Re-read from the environment on every call.
int DefaultThreadCount();

class ThreadPool {
 public:
  // How long an idle runner polls before it blocks in the kernel: a worker
  // waiting for the next call, and the caller waiting for workers' last
  // chunks. Waking a blocked thread can take longer than a short call.
  static constexpr std::chrono::microseconds kSpin{50};

  // `num_threads` runners: the caller plus num_threads - 1 spawned workers.
  // Values <= 1 create an inline (threadless) pool.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of runners, the calling thread included (1 for an inline pool).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(0) .. fn(n - 1) and returns once every index has finished. The
  // caller and the workers claim contiguous chunks of about
  // n / (4 * num_threads()) indices through one atomic cursor; the caller
  // starts on its own chunks as soon as it publishes the call. Result commits
  // must go to index-owned slots; under that contract the outcome is
  // identical to the serial loop regardless of thread count. A call made
  // while another call is in flight on this pool — a nested call from one of
  // its items, or a second thread's call — runs serially on its caller.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

 private:
  // Bit of gate_ set while the call in flight accepts workers; the bits
  // below it count the workers attached to that call.
  static constexpr uint32_t kOpen = uint32_t{1} << 31;

  // Joins the open call, if any: afterwards fn_, n_ and chunk_ are the
  // call's and stay fixed until Detach().
  bool Attach();
  void Detach();
  // Runs chunks of the call in flight until the cursor passes the last one.
  void RunChunks();
  void WorkerLoop();

  std::vector<std::thread> workers_;
  // Set by the caller that owns the pool for the call in flight.
  std::atomic<bool> busy_{false};
  // Bumped once per published call and once at shutdown; idle workers wait
  // for it to change.
  std::atomic<uint32_t> seq_{0};
  std::atomic<bool> shutting_down_{false};
  // kOpen | attached workers. The caller closes the gate once every chunk is
  // claimed and returns when no worker is attached: each claimed chunk has
  // then finished, and no late worker can reach the next call's state.
  std::atomic<uint32_t> gate_{0};
  // The call in flight. Written by the caller before it opens the gate, read
  // by attached workers.
  const std::function<void(int64_t)>* fn_ = nullptr;
  int64_t n_ = 0;
  int64_t chunk_ = 1;
  std::atomic<int64_t> next_chunk_{0};  // the claim cursor, in chunks
};

}  // namespace optimus

#endif  // SRC_COMMON_THREADPOOL_H_
