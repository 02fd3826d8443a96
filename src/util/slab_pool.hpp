#pragma once

// SlabPool: a chunked object pool with generation-checked handles, built for
// per-frame contexts on the data-plane fast path.
//
// TpuClient used to heap-allocate a shared_ptr'd InvokeContext per frame and
// thread it through every pipeline stage, paying an allocation plus refcount
// churn on each of the millions of frames a figure reproduction replays.
// The pool replaces that with recycled slots: stages capture a {this, Handle}
// pair (16 bytes — inline in the event slot) and re-resolve the context at
// each hop. The DataPlane keeps one pool per shard, shared by every client
// on that shard, so its live slots are that shard's frames in flight.
//
// Design points:
//  * a slot is {generation, free link, T}: resolving a handle reads one slot
//    and nothing else, with no side table of generations or free indices;
//  * storage is chunked and chunks double from one slot: chunk k holds 2^k
//    slots at indices [2^k - 1, 2^(k+1) - 1), so an index finds its chunk
//    with one std::bit_width. Every chunk is a heap array, and an empty
//    pool owns none. Growth adds a chunk and never moves a live object, so
//    T* stay stable for the pool's lifetime (the pool is neither copyable
//    nor movable) and a stage may hold a pointer across calls that acquire
//    new slots;
//  * capacity stays under twice the in-use high-water mark;
//  * each slot carries a generation counter bumped on acquire AND release
//    (odd = live). A handle embeds the generation it was minted with, so a
//    stale handle — slot released, possibly reused — resolves to nullptr
//    instead of someone else's frame;
//  * free slots form a LIFO list threaded through their links, keeping the
//    hot working set small and cache-resident; a new chunk is linked in
//    index order, so never-used slots come out lowest index first;
//  * steady state performs zero heap allocations: a chunk is allocated only
//    when the in-use high-water mark outgrows the capacity.
//
// The pool keeps no list of its live slots: an owner that must find its
// objects again threads its own links through them (TpuClient keeps its
// frames in flight on an intrusive FIFO).
//
// T must be default-constructible; objects are constructed once per slot and
// reused, so the caller resets whatever fields matter on acquire.

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace microedge {

// A slot address minted by SlabPool<T>::acquire(). It does not depend on T,
// so a T may hold handles to its own pool's slots.
struct SlabHandle {
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;
  std::uint32_t index = kInvalidIndex;
  std::uint32_t generation = 0;
  bool valid() const { return index != kInvalidIndex; }
  friend bool operator==(SlabHandle a, SlabHandle b) {
    return a.index == b.index && a.generation == b.generation;
  }
};

template <typename T>
class SlabPool {
 public:
  using Handle = SlabHandle;

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  // Returns a handle to a live slot. The object is recycled, not
  // re-constructed — reset its fields before use.
  Handle acquire() {
    if (freeHead_ == kNoSlot) grow();
    const std::uint32_t index = freeHead_;
    Slot& s = slot(index);
    freeHead_ = s.nextFree;
    const std::uint32_t gen = ++s.generation;  // even -> odd: live
    assert((gen & 1u) == 1u && "acquired slot must be generation-odd");
    ++inUse_;
    return Handle{index, gen};
  }

  // Resolves a handle; nullptr if the handle is stale (its slot has been
  // released since, whether or not it was reacquired).
  T* get(Handle h) {
    if (h.index >= capacity_) return nullptr;
    Slot& s = slot(h.index);
    if (s.generation != h.generation || (h.generation & 1u) == 0u) {
      return nullptr;
    }
    return &s.value;
  }

  // Releases a live slot back to the free list. Stale handles are rejected
  // (returns false) rather than corrupting the free list with double-frees.
  bool release(Handle h) {
    if (get(h) == nullptr) return false;
    Slot& s = slot(h.index);
    ++s.generation;  // odd -> even: free
    s.nextFree = freeHead_;
    freeHead_ = h.index;
    --inUse_;
    return true;
  }

  std::size_t inUse() const { return inUse_; }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kNoSlot = SlabHandle::kInvalidIndex;

  struct Slot {
    std::uint32_t generation = 0;  // odd = live
    std::uint32_t nextFree = kNoSlot;  // free-list link while free
    T value{};
  };

  Slot& slot(std::uint32_t index) {
    // index + 1 has its top bit at position k for every slot of chunk k.
    const unsigned k = std::bit_width(index + 1u) - 1u;
    return chunks_[k][index + 1u - (1u << k)];
  }

  // Adds the next chunk; acquire() calls this only on an empty free list.
  // Chunk k starts at index capacity() == 2^k - 1 and holds 2^k slots,
  // linked so the lowest index comes out first.
  void grow() {
    const std::uint32_t oldCapacity = capacity_;
    const std::uint32_t newCapacity = 2 * oldCapacity + 1;
    assert(newCapacity < kNoSlot && "slab pool index space");
    chunks_.push_back(std::make_unique<Slot[]>(oldCapacity + 1));
    capacity_ = newCapacity;
    for (std::uint32_t i = oldCapacity; i < newCapacity; ++i) {
      slot(i).nextFree = i + 1 < newCapacity ? i + 1 : kNoSlot;
    }
    freeHead_ = oldCapacity;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;  // chunk k at chunks_[k]
  std::uint32_t capacity_ = 0;
  std::uint32_t freeHead_ = kNoSlot;
  std::size_t inUse_ = 0;
};

}  // namespace microedge
