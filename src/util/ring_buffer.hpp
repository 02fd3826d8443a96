#pragma once

// RingQueue: a power-of-two growable FIFO for hot-path queues.
//
// TpuDevice's run-to-completion FIFO used to be a std::deque<Pending> whose
// entries carried std::string model names and std::function callbacks —
// node allocations and indirections on every enqueued frame. This ring keeps
// elements in one contiguous power-of-two array: push/pop are an index mask
// and a move, and once the queue has seen its high-water depth the steady
// state never touches the heap again (capacity is retained across
// drain/refill cycles).
//
// T must be default-constructible and movable (move-only is fine — the
// device queues MoveFn callbacks). pop_front() move-assigns a fresh T over
// the vacated slot so popped payloads release their resources immediately,
// not when the slot is next overwritten.

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace microedge {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  T& front() {
    assert(size_ > 0 && "front() on empty RingQueue");
    return slots_[head_];
  }

  void pop_front() {
    assert(size_ > 0 && "pop_front() on empty RingQueue");
    slots_[head_] = T{};  // release the payload's resources now
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    std::size_t newCap = slots_.empty() ? kInitialCapacity : slots_.size() * 2;
    std::vector<T> next(newCap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(next);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace microedge
