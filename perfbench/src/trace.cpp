// Counting allocator and span recorder for the benchmark.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>

#include "perfbench.hpp"

// --- Counting allocator ------------------------------------------------------
// Every global allocation in the process is counted, so a rep can report how
// many allocations its setup and its timed phase made. The same idiom as the
// microbenchmarks under bench/.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocCount() { return g_allocs.load(std::memory_order_relaxed); }

// --- Tracer --------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(kCapacity);
}

std::uint64_t Tracer::nowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count());
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
  if (!enabled_) return 0;
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.startNs = nowNs();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size());  // ids start at 1
}

void Tracer::counter(std::uint32_t id, const char* name, double value) {
  if (id == 0) return;
  Span& span = spans_[id - 1];
  if (span.counters < kMaxCounters) span.counter[span.counters++] = {name, value};
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].endNs = nowNs();
}

std::string Tracer::spansSince(std::size_t from) const {
  static_assert(std::is_trivially_copyable_v<Span>);
  if (from >= spans_.size()) return {};
  return std::string(reinterpret_cast<const char*>(spans_.data() + from),
                     (spans_.size() - from) * sizeof(Span));
}

void Tracer::adoptSpans(const std::string& bytes, std::size_t dropped) {
  dropped_ = dropped;
  if (bytes.empty()) return;
  const std::size_t at = spans_.size();
  spans_.resize(at + bytes.size() / sizeof(Span));
  std::memcpy(static_cast<void*>(spans_.data() + at), bytes.data(),
              (spans_.size() - at) * sizeof(Span));
}

bool Tracer::writeChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %u",
                 i == 0 ? "" : ",", s.name, static_cast<double>(s.startNs) / 1e3,
                 static_cast<double>(s.endNs - s.startNs) / 1e3, i + 1,
                 s.parent);
    for (int c = 0; c < s.counters; ++c) {
      std::fprintf(f, ", \"%s\": %.17g", s.counter[c].name, s.counter[c].value);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
