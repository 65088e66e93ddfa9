// A small fixed-size thread pool for deterministic parallelism.
//
// The library's parallel call sites (experiment repeats, per-arrival speed
// pre-run sampling) are embarrassingly parallel: each unit of work owns its
// state — in particular its own split RNG — and writes its result to an
// index-owned slot. Under that contract, running the units on N threads and
// committing results in index order is bitwise identical to the serial path,
// for any N. The pool provides the mechanics; the contract is the caller's.
//
// Pools constructed with num_threads <= 1 spawn no threads at all: Submit()
// runs the task inline on the calling thread and ParallelFor() degenerates to
// a plain loop, so single-threaded behavior is exactly the pre-pool code.
//
// Tasks must not throw: an exception escaping a worker thread terminates the
// process (as it would from any detached std::thread).

#ifndef SRC_COMMON_THREADPOOL_H_
#define SRC_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace optimus {

// Thread count used when a caller asks for the environment default: the value
// of OPTIMUS_THREADS when set to a positive integer, otherwise 1 (serial).
// Re-read from the environment on every call.
int DefaultThreadCount();

class ThreadPool {
 public:
  // Spawns `num_threads` workers; values <= 1 create an inline (threadless)
  // pool.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of worker threads (0 for an inline pool).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task (runs it inline for a threadless pool).
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  // Runs fn(0) .. fn(n - 1), distributing indices over the workers via a
  // shared counter, and blocks until all have finished. Result commits must
  // go to index-owned slots; under that contract the outcome is identical to
  // the serial loop regardless of thread count. Called from a task already
  // running on this pool, it runs the loop inline on the calling worker.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int64_t in_flight_ = 0;  // queued + currently executing
  bool shutting_down_ = false;
};

}  // namespace optimus

#endif  // SRC_COMMON_THREADPOOL_H_
