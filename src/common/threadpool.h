// A small fork-join thread pool for deterministic parallelism.
//
// The library's parallel call sites (experiment repeats, per-arrival speed
// pre-run sampling, per-job stepping and model refits) are embarrassingly
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

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace optimus {

// Thread count used when a caller asks for the environment default: the value
// of OPTIMUS_THREADS when set to an integer in [1, INT_MAX], otherwise 1
// (serial). Re-read from the environment on every call.
int DefaultThreadCount();

class ThreadPool {
 public:
  // `num_threads` runners: the caller plus num_threads - 1 spawned workers.
  // Values <= 1 create an inline (threadless) pool.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of runners, the calling thread included (1 for an inline pool).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(0) .. fn(n - 1) and returns once every index has finished. The
  // workers claim contiguous chunks of about n / (4 * num_threads()) indices
  // from the front, the caller claims them from the back. Result commits must
  // go to index-owned slots; under that contract the outcome is identical to
  // the serial loop regardless of thread count. A call made while another call
  // is in flight on this pool — a nested call from one of its items, or a
  // second thread's call — runs serially on its caller.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

 private:
  // Claims the next chunk of the call in flight, from the front or the back;
  // false when every index is claimed. Requires mu_.
  bool Claim(bool from_back, int64_t* begin, int64_t* end);
  // Runs claimed chunks until none is left; `lock` holds mu_ on entry and
  // exit and is released while items run.
  void RunChunks(bool from_back, std::unique_lock<std::mutex>& lock);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;  // a call was published, or shutdown
  std::condition_variable call_done_;   // the call's last index finished
  // The call in flight (fn_ != nullptr), all guarded by mu_. Indices in
  // [front_, back_) are unclaimed; unfinished_ counts those not yet run.
  const std::function<void(int64_t)>* fn_ = nullptr;
  int64_t front_ = 0;
  int64_t back_ = 0;
  int64_t chunk_ = 1;
  int64_t unfinished_ = 0;
  bool shutting_down_ = false;
};

}  // namespace optimus

#endif  // SRC_COMMON_THREADPOOL_H_
