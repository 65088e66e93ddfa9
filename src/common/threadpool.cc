#include "src/common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/common/logging.h"

namespace optimus {

namespace {

// The pool whose worker is running on this thread; null off-pool.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

int DefaultThreadCount() {
  const char* env = std::getenv("OPTIMUS_THREADS");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 1) {
    OPTIMUS_LOG(Warning) << "ignoring malformed OPTIMUS_THREADS='" << env << "'";
    return 1;
  }
  return static_cast<int>(value);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 1) {
    return;  // inline pool
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) {
    return;
  }
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  OPTIMUS_CHECK(task != nullptr);
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    OPTIMUS_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  if (workers_.empty()) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  // A call from one of this pool's own workers runs inline: waiting for the
  // pool to drain would count the caller's own task and never return.
  if (workers_.empty() || n == 1 || current_pool == this) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  // One puller task per worker; each pulls the next unclaimed index. Which
  // thread runs which index is nondeterministic, but per-index work is
  // independent and results land in index-owned slots, so the outcome is not.
  auto next = std::make_shared<std::atomic<int64_t>>(0);
  const int pullers =
      static_cast<int>(std::min<int64_t>(n, static_cast<int64_t>(workers_.size())));
  for (int t = 0; t < pullers; ++t) {
    Submit([next, n, &fn] {
      for (int64_t i = (*next)++; i < n; i = (*next)++) {
        fn(i);
      }
    });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace optimus
