#pragma once

// SlabPool: a chunked object pool with generation-checked handles, built for
// per-frame contexts on the data-plane fast path.
//
// TpuClient used to heap-allocate a shared_ptr'd InvokeContext per frame and
// thread it through every pipeline stage, paying an allocation plus refcount
// churn on each of the millions of frames a figure reproduction replays.
// The pool replaces that with recycled slots: stages capture a {this, Handle}
// pair (16 bytes — inline in the event slot) and re-resolve the context at
// each hop.
//
// Design points:
//  * storage is chunked and chunks double from one slot: chunk k holds 2^k
//    slots at indices [2^k - 1, 2^(k+1) - 1), so an index finds its chunk
//    with one std::bit_width. Growth adds a chunk and never moves a live
//    object, so T* stay stable for the pool's lifetime and a stage may hold
//    a pointer across calls that acquire new slots;
//  * capacity stays under twice the in-use high-water mark, so a pool that
//    never has more than one frame in flight (the client of a 1 fps stream)
//    holds one slot;
//  * each slot carries a generation counter bumped on acquire AND release
//    (odd = live). A Handle embeds the generation it was minted with, so a
//    stale handle — slot released, possibly reused — resolves to nullptr
//    instead of someone else's frame;
//  * slots are recycled LIFO through an index free list, keeping the hot
//    working set small and cache-resident; never-used slots sit beneath the
//    recycled ones and come out lowest index first;
//  * steady state performs zero heap allocations: a chunk is allocated only
//    when the in-use high-water mark grows.
//
// T must be default-constructible; objects are constructed once per slot and
// reused, so the caller resets whatever fields matter on acquire.

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace microedge {

template <typename T>
class SlabPool {
 public:
  struct Handle {
    std::uint32_t index = kInvalidIndex;
    std::uint32_t generation = 0;
    bool valid() const { return index != kInvalidIndex; }
    friend bool operator==(Handle a, Handle b) {
      return a.index == b.index && a.generation == b.generation;
    }
  };

  // Returns a handle to a live slot. The object is recycled, not
  // re-constructed — reset its fields before use.
  Handle acquire() {
    if (freeList_.empty()) grow();
    std::uint32_t index = freeList_.back();
    freeList_.pop_back();
    std::uint32_t gen = ++generation_[index];  // even -> odd: live
    assert((gen & 1u) == 1u && "acquired slot must be generation-odd");
    ++inUse_;
    return Handle{index, gen};
  }

  // Resolves a handle; nullptr if the handle is stale (its slot has been
  // released since, whether or not it was reacquired).
  T* get(Handle h) {
    if (h.index >= generation_.size()) return nullptr;
    if (generation_[h.index] != h.generation || (h.generation & 1u) == 0u) {
      return nullptr;
    }
    return slotPtr(h.index);
  }

  // Releases a live slot back to the free list. Stale handles are rejected
  // (returns false) rather than corrupting the freelist with double-frees.
  bool release(Handle h) {
    if (get(h) == nullptr) return false;
    ++generation_[h.index];  // odd -> even: free
    freeList_.push_back(h.index);
    --inUse_;
    return true;
  }

  // Visits every live slot as (Handle, T&) in index order. `fn` must not
  // acquire or release slots while iterating — snapshot handles first if it
  // needs to. O(capacity); meant for rare lifecycle sweeps (service
  // removal), never the per-frame path.
  template <typename Fn>
  void forEachLive(Fn&& fn) {
    for (std::uint32_t i = 0; i < generation_.size(); ++i) {
      if ((generation_[i] & 1u) != 0u) {
        fn(Handle{i, generation_[i]}, *slotPtr(i));
      }
    }
  }

  std::size_t inUse() const { return inUse_; }
  std::size_t capacity() const { return generation_.size(); }

 private:
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  T* slotPtr(std::uint32_t index) {
    // index + 1 has its top bit at position k for every slot of chunk k.
    const unsigned k = std::bit_width(index + 1u) - 1u;
    return &chunks_[k][index + 1u - (1u << k)];
  }

  // Adds the next chunk; acquire() calls this only on an empty free list.
  // Chunk k starts at index capacity() == 2^k - 1 and holds 2^k slots,
  // listed so the lowest index comes out first.
  void grow() {
    const std::size_t oldCapacity = generation_.size();
    const std::size_t newCapacity = 2 * oldCapacity + 1;
    assert(newCapacity < kInvalidIndex && "slab pool index space");
    chunks_.push_back(std::make_unique<T[]>(oldCapacity + 1));
    generation_.resize(newCapacity, 0);
    freeList_.reserve(newCapacity);
    for (std::size_t i = newCapacity; i > oldCapacity; --i) {
      freeList_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> generation_;  // per slot; odd = live
  std::vector<std::uint32_t> freeList_;
  std::size_t inUse_ = 0;
};

}  // namespace microedge
