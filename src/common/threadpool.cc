#include "src/common/threadpool.h"

#include <algorithm>
#include <climits>
#include <cstdlib>

#include "src/common/logging.h"

namespace optimus {

int DefaultThreadCount() {
  const char* env = std::getenv("OPTIMUS_THREADS");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  // strtol saturates an out-of-range value at LONG_MAX, which is > INT_MAX too.
  if (end == env || *end != '\0' || value < 1 || value > INT_MAX) {
    OPTIMUS_LOG(Warning) << "ignoring malformed OPTIMUS_THREADS='" << env << "'";
    return 1;
  }
  return static_cast<int>(value);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 1) {
    return;  // inline pool
  }
  workers_.reserve(num_threads - 1);
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

bool ThreadPool::Claim(bool from_back, int64_t* begin, int64_t* end) {
  if (front_ >= back_) {
    return false;
  }
  if (from_back) {
    *end = back_;
    *begin = std::max(front_, back_ - chunk_);
    back_ = *begin;
  } else {
    *begin = front_;
    *end = std::min(back_, front_ + chunk_);
    front_ = *end;
  }
  return true;
}

void ThreadPool::RunChunks(bool from_back, std::unique_lock<std::mutex>& lock) {
  // While this runner holds a claimed chunk, unfinished_ > 0 and the call
  // cannot return, so every claim below belongs to the call it joined.
  int64_t begin = 0;
  int64_t end = 0;
  while (Claim(from_back, &begin, &end)) {
    const std::function<void(int64_t)>& fn = *fn_;
    lock.unlock();
    for (int64_t i = begin; i < end; ++i) {
      fn(i);
    }
    lock.lock();
    unfinished_ -= end - begin;
    if (unfinished_ == 0) {
      call_done_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  auto serial = [n, &fn] {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
  };
  if (workers_.empty() || n == 1) {
    serial();
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (fn_ != nullptr) {
    // Another call is in flight: this is a nested call from one of its items
    // (waiting for the pool would wait on the caller itself) or a second
    // thread's call. Either way the caller runs its items alone.
    lock.unlock();
    serial();
    return;
  }
  // Publish the call, then run chunks from the back while the workers wake
  // and claim from the front. Which runner runs which index is
  // nondeterministic, but per-index work is independent and results land in
  // index-owned slots, so the outcome is not.
  fn_ = &fn;
  front_ = 0;
  back_ = n;
  chunk_ = std::max<int64_t>(1, n / (4 * num_threads()));
  unfinished_ = n;
  lock.unlock();
  work_ready_.notify_all();
  lock.lock();
  RunChunks(/*from_back=*/true, lock);
  // Everything is claimed; wait only for chunks still running on workers.
  call_done_.wait(lock, [this] { return unfinished_ == 0; });
  fn_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] { return shutting_down_ || front_ < back_; });
    if (shutting_down_) {
      return;
    }
    RunChunks(/*from_back=*/false, lock);
  }
}

}  // namespace optimus
