#pragma once

// Counting allocator for the micro benches that measure or guard heap
// allocations (bench_micro_sim, bench_micro_dataplane, bench_micro_chaos,
// bench_micro_shardsim). Including this header replaces the global operator
// new/delete of the whole binary, so include it from the bench's one
// translation unit and never link two benches together. It counts every
// allocation, and the blocks and bytes live at any moment (bytes as
// malloc_usable_size reports them, so a block's rounding counts too; the
// toolchain is gcc/glibc only). Relaxed atomics: the counters only need to
// be well-defined, not ordered. The operators stay out of line so GCC does
// not match an inlined malloc() or free() against the replaced operator it
// pairs with (-Wmismatched-new-delete).

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<std::uint64_t> g_freeCount{0};
std::atomic<std::int64_t> g_liveBytes{0};

[[gnu::noinline]] void countedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_freeCount.fetch_add(1, std::memory_order_relaxed);
  g_liveBytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = std::malloc(size ? size : 1)) {
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    g_liveBytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                          std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { countedFree(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  countedFree(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { countedFree(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  countedFree(p);
}

namespace microedge {

// Global allocations this process has made so far.
inline std::uint64_t allocsNow() {
  return g_allocCount.load(std::memory_order_relaxed);
}

// Heap blocks allocated through operator new and not yet freed.
inline std::int64_t liveBlocksNow() {
  return static_cast<std::int64_t>(
      g_allocCount.load(std::memory_order_relaxed) -
      g_freeCount.load(std::memory_order_relaxed));
}

// Usable bytes of those blocks.
inline std::int64_t liveBytesNow() {
  return g_liveBytes.load(std::memory_order_relaxed);
}

}  // namespace microedge
