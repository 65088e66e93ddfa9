// Typed d-ary min-heap with a caller-supplied strict-weak "before" order.
//
// Its consumers — the Optimus allocator's greedy marginal-gain heap, the
// simulator's pending-spec queue and the events engine's clock markers — need
// the same thing: a deterministic priority queue whose tie-breaking is
// explicit in the comparator (no reliance on container internals), cheap to
// push into at bulk (each round, every running job leaves a clock marker),
// and cache-friendly to pop from. A 4-ary heap halves the tree depth of the
// binary std::priority_queue layout, which measurably helps the pop-heavy
// allocator loop at cluster scale, and `top()` + `pop()` are split so callers
// can read the top in place before popping it.
//
// Determinism contract: the comparator must define a strict weak ordering;
// when it is a total order over the pushed elements (as the pending queue's
// (arrival, order key) is), pop order is fully determined by the element
// values — independent of push order, arity, or standard-library internals.

#ifndef SRC_COMMON_MIN_HEAP_H_
#define SRC_COMMON_MIN_HEAP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace optimus {

// Min-heap: `top()` is the element that `Before{}(a, b)` orders first.
template <typename T, typename Before, int Arity = 4>
class MinHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  MinHeap() = default;
  explicit MinHeap(Before before) : before_(std::move(before)) {}

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void reserve(size_t n) { heap_.reserve(n); }
  void clear() { heap_.clear(); }

  const T& top() const {
    OPTIMUS_CHECK(!heap_.empty()) << "top() on an empty heap";
    return heap_.front();
  }

  void push(T value) {
    heap_.push_back(std::move(value));
    SiftUp(heap_.size() - 1);
  }

  void pop() {
    OPTIMUS_CHECK(!heap_.empty()) << "pop() on an empty heap";
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0);
    }
  }

 private:
  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / Arity;
      if (!before_(heap_[i], heap_[parent])) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    while (true) {
      const size_t first_child = i * Arity + 1;
      if (first_child >= n) {
        break;
      }
      size_t best = first_child;
      const size_t last_child =
          first_child + Arity < n ? first_child + Arity : n;
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (before_(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!before_(heap_[best], heap_[i])) {
        break;
      }
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<T> heap_;
  Before before_;
};

}  // namespace optimus

#endif  // SRC_COMMON_MIN_HEAP_H_
