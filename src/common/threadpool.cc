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

namespace {

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Returns the first value of `word` other than `old`: polls for
// ThreadPool::kSpin, then blocks in the kernel until a notify.
uint32_t AwaitChange(const std::atomic<uint32_t>& word, uint32_t old) {
  const auto deadline = std::chrono::steady_clock::now() + ThreadPool::kSpin;
  uint32_t value;
  while ((value = word.load(std::memory_order_acquire)) == old) {
    if (std::chrono::steady_clock::now() < deadline) {
      CpuRelax();
    } else {
      word.wait(old, std::memory_order_acquire);
    }
  }
  return value;
}

}  // namespace

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
  shutting_down_.store(true, std::memory_order_relaxed);
  seq_.fetch_add(1, std::memory_order_release);
  seq_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

bool ThreadPool::Attach() {
  uint32_t gate = gate_.load(std::memory_order_relaxed);
  do {
    if ((gate & kOpen) == 0) {
      return false;
    }
  } while (!gate_.compare_exchange_weak(gate, gate + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed));
  return true;
}

void ThreadPool::Detach() {
  // The release orders this worker's items before the caller's return.
  if (gate_.fetch_sub(1, std::memory_order_release) == 1) {
    gate_.notify_one();  // the gate was closed and this was the last worker
  }
}

void ThreadPool::RunChunks() {
  const int64_t chunks = (n_ + chunk_ - 1) / chunk_;
  for (int64_t c; (c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) < chunks;) {
    const int64_t end = std::min(n_, (c + 1) * chunk_);
    for (int64_t i = c * chunk_; i < end; ++i) {
      (*fn_)(i);
    }
  }
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  if (workers_.empty() || n == 1 || busy_.exchange(true, std::memory_order_acquire)) {
    // Inline pool, a single item, or another call in flight: a nested call
    // from one of its items (waiting for the pool would wait on the caller
    // itself) or a second thread's call. Either way the caller runs its items
    // alone.
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  // Publish the call and start on it at once; workers that are awake, or
  // wake in time, claim chunks through the same cursor. Which runner runs
  // which index is nondeterministic, but per-index work is independent and
  // results land in index-owned slots, so the outcome is not.
  fn_ = &fn;
  n_ = n;
  chunk_ = std::max<int64_t>(1, n / (4 * num_threads()));
  next_chunk_.store(0, std::memory_order_relaxed);
  gate_.store(kOpen, std::memory_order_release);
  seq_.fetch_add(1, std::memory_order_release);
  seq_.notify_all();
  RunChunks();
  // Every chunk is claimed: close the gate and wait only for workers still
  // running theirs.
  for (uint32_t attached = gate_.fetch_and(~kOpen, std::memory_order_acq_rel) & ~kOpen;
       attached != 0;) {
    attached = AwaitChange(gate_, attached);
  }
  busy_.store(false, std::memory_order_release);
}

void ThreadPool::WorkerLoop() {
  // A worker that wakes late may find the call it woke for closed (Attach
  // fails) or a newer call open (it joins that one); it never touches a
  // call's state unless attached to it.
  uint32_t seen = 0;
  seq_.wait(seen, std::memory_order_acquire);  // no call to spin for yet
  for (;;) {
    seen = AwaitChange(seq_, seen);
    if (shutting_down_.load(std::memory_order_relaxed)) {
      return;
    }
    if (Attach()) {
      RunChunks();
      Detach();
    }
  }
}

}  // namespace optimus
