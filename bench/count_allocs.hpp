#pragma once

// Counting allocator for the micro benches that measure or guard
// steady-state heap allocations (bench_micro_sim, bench_micro_dataplane,
// bench_micro_chaos, bench_micro_shardsim). Including this header replaces
// the global operator new/delete of the whole binary, so include it from
// the bench's one translation unit and never link two benches together.
// Relaxed atomics: the counter only needs to be well-defined, not ordered.
// The operators stay out of line so GCC does not match an inlined malloc()
// or free() against the replaced operator it pairs with
// (-Wmismatched-new-delete).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace microedge {

// Global allocations this process has made so far.
inline std::uint64_t allocsNow() {
  return g_allocCount.load(std::memory_order_relaxed);
}

}  // namespace microedge
