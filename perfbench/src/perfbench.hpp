#pragma once

// Shared pieces of the repository benchmark (see ../README.md).
//
// A run executes one workload as a sequence of repetitions ("reps"). Every
// rep runs in a forked process of its own: it builds the harness from
// scratch, runs a fixed simulated horizon, drains, checks itself, sends its
// Rep to the runner and exits without destroying the harness. Simulated
// results repeat exactly, so every rep of a run must report identical sim
// metrics; host (wall-clock) figures are reported as the median over the
// reps.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Global operator new calls since process start (trace.cpp replaces the
// global allocation functions with counting ones).
std::uint64_t allocCount();

// In-memory span recorder for traced runs. Spans are recorded around the
// benchmark's own calls into the harness, each with an id, its parent's id
// and up to kMaxCounters named counters, and written at exit as Chrome
// trace-event JSON. Storage is reserved up front and recording stops when it
// is full, so recording never allocates mid-run.
class Tracer {
 public:
  static constexpr int kMaxCounters = 4;
  static constexpr std::size_t kCapacity = 1u << 17;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  // Opens a span and returns its id (0, a no-op id, when disabled or full).
  std::uint32_t begin(const char* name, std::uint32_t parent = 0);
  void counter(std::uint32_t id, const char* name, double value);
  void end(std::uint32_t id);

  std::size_t spanCount() const { return spans_.size(); }
  std::size_t droppedSpans() const { return dropped_; }
  bool writeChromeJson(const std::string& path) const;

  // The spans recorded from index `from` on, as raw bytes, and the inverse,
  // which appends them and takes over the dropped-span total. Only for
  // moving a forked rep process's spans to its parent: span and counter
  // names are string literals, at the same addresses in both processes.
  std::string spansSince(std::size_t from) const;
  void adoptSpans(const std::string& bytes, std::size_t dropped);

 private:
  struct Counter {
    const char* name = nullptr;
    double value = 0.0;
  };
  struct Span {
    const char* name = nullptr;
    std::uint32_t parent = 0;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int counters = 0;
    Counter counter[kMaxCounters];
  };
  std::uint64_t nowNs() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// RAII span: begin at construction, end at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }
  void counter(const char* name, double value) {
    tracer_.counter(id_, name, value);
  }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

enum class Scale { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string traceOut;
};

// One rep's results.
struct Rep {
  // Simulated results by metric name: a pure function of (workload, seed,
  // scale), so every rep of a run must agree on them exactly.
  std::map<std::string, double> sim;
  std::uint64_t digest = 0;
  // Wall-clock figures by metric name.
  std::map<std::string, double> host;
  // Raw wall-clock samples (microseconds) pooled across reps before taking
  // percentiles: per deploy call and per remove call.
  std::vector<double> deployUs;
  std::vector<double> removeUs;
  // Wall seconds of each slice of the timed phase, and the frames the phase
  // submitted. Every rep runs the same simulated slices, so frames_per_s
  // divides the frames by the sum over slices of the slice's median wall
  // time across reps: host noise that hits one rep cannot move it.
  std::vector<double> sliceWalls;
  std::uint64_t timedFrames = 0;
  std::uint64_t framesSubmitted = 0;
  // Correctness-gate failures, one line each.
  std::vector<std::string> violations;
  // The harness the rep ran on, kept alive until the rep's process exits:
  // destroying a 100k-stream ShardedCluster takes seconds.
  std::shared_ptr<void> harness;
};

struct Workload {
  const char* name;
  Rep (*runRep)(const Options&, Tracer&);
  // One-line JSON description of the seed-derived inputs (empty object for
  // workloads without random input).
  std::string (*inputs)(const Options&);
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
