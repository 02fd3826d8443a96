// perfbench — the repository benchmark's runner binary.
//
//   perfbench --workload city-solo --seed 1 --seconds 10 --trace 0
//             [--scale full|tiny] [--trace-out PATH] [--rev REV]
//   perfbench --inputs --workload paper-churn --seed 7
//
// Runs the workload rep after rep (at least kMinReps, then until --seconds of
// wall time have passed), each rep in a forked process of its own, and
// prints two lines: an info object (machine, build, seed, digest, inputs,
// gate failures) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics and writes the span
// trace to --trace-out. --inputs prints the seed-derived inputs and exits.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the benchmark's own test checks it).
constexpr MetricDef kEndToEnd[] = {
    {"frames_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"frame_completed_ratio", "ratio"},
    {"admit_ratio", "ratio"},
    {"tpu_util", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    // Event engine.
    {"sim.events", "count"},
    {"sim.events_per_frame", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_near_mean", "count"},
    {"sim.pending_far_mean", "count"},
    {"sim.pending_max", "count"},
    // Sharded simulation (zero at one shard).
    {"sharded.windows", "count"},
    {"sharded.events_per_window", "count"},
    {"sharded.adaptive_windows", "count"},
    {"sharded.relief_windows", "count"},
    {"sharded.cross_msgs", "count"},
    {"sharded.stall_share", "ratio"},
    // Counting allocator.
    {"alloc.steady_per_frame", "count"},
    {"alloc.setup_count", "count"},
    // Data plane.
    {"dataplane.completed", "count"},
    {"dataplane.timed_out", "count"},
    {"dataplane.shed", "count"},
    {"dataplane.admission_rejected", "count"},
    {"dataplane.dead_target", "count"},
    {"dataplane.failovers", "count"},
    {"dataplane.transport_msgs", "count"},
    {"dataplane.model_swaps", "count"},
    {"dataplane.tpu_busy_share", "ratio"},
    {"dataplane.queue_ms_p99", "sim_ms"},
    {"dataplane.inference_ms_mean", "sim_ms"},
    {"dataplane.transmit_ms_mean", "sim_ms"},
    // Control plane.
    {"core.admitted", "count"},
    {"core.rejected", "count"},
    {"core.partitioned", "count"},
    {"core.tpus_used", "count"},
    {"core.reclaimed", "count"},
    {"core.remove_us_p50", "us"},
    {"core.defrag_us", "us"},
    {"core.fail_tpu_us", "us"},
    {"core.repacks", "count"},
    {"core.degrade_downs", "count"},
    {"core.degrade_ups", "count"},
    // Workload-specific results (zero where the workload has no such
    // quantity; see README.md).
    {"deploy_p50_us", "us"},
    {"deploy_p99_us", "us"},
    {"deploy_samples", "count"},
    {"frame_fail_ratio", "ratio"},
    {"sim_slo_attainment", "ratio"},
    {"sim_goodput_fps", "frames/sim_s"},
    {"sim_latency_p50_ms", "sim_ms"},
    {"sim_latency_p99_ms", "sim_ms"},
    {"scenario.peak_attainment", "ratio"},
    {"testbed.warmup_s", "s"},
    // The traced run itself.
    {"trace.frames_per_s", "1/s"},
    {"trace.spans", "count"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks (as util/histogram's Summary).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Peak resident memory of the run: the largest of the runner and its
// finished rep processes.
double peakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // KiB on Linux
}

// --- Reps in forked processes -------------------------------------------------
// A rep process sends its Rep and its spans to the runner through a pipe and
// exits without destroying its harness, so no rep pays for the previous
// one's teardown (seconds at the 100k-stream scale).

class Writer {
 public:
  void u64(std::uint64_t v) { bytes_.append(reinterpret_cast<char*>(&v), 8); }
  void f64(double v) { bytes_.append(reinterpret_cast<char*>(&v), 8); }
  void str(const std::string& s) {
    u64(s.size());
    bytes_ += s;
  }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    for (double d : v) f64(d);
  }
  void named(const std::map<std::string, double>& m) {
    u64(m.size());
    for (const auto& [name, v] : m) {
      str(name);
      f64(v);
    }
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  bool atEnd() const { return pos_ == bytes_.size(); }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    take(&v, 8);
    return v;
  }
  double f64() {
    double v = 0.0;
    take(&v, 8);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    pos_ += n;
    return bytes_.substr(pos_ - n, n);
  }
  std::vector<double> doubles() {
    const std::uint64_t n = u64();
    std::vector<double> v(std::min<std::uint64_t>(n, remaining() / 8));
    for (double& d : v) d = f64();
    return v;
  }
  std::map<std::string, double> named() {
    std::map<std::string, double> m;
    for (std::uint64_t n = u64(); ok_ && n > 0; --n) {
      std::string name = str();
      m[name] = f64();
    }
    return m;
  }

 private:
  std::size_t remaining() const { return bytes_.size() - pos_; }
  void take(void* out, std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return;
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::string encodeRep(const Rep& rep, const Tracer& tracer,
                      std::size_t spansBefore) {
  Writer w;
  w.named(rep.sim);
  w.u64(rep.digest);
  w.named(rep.host);
  w.doubles(rep.deployUs);
  w.doubles(rep.removeUs);
  w.doubles(rep.sliceWalls);
  w.u64(rep.timedFrames);
  w.u64(rep.framesSubmitted);
  w.u64(rep.violations.size());
  for (const std::string& v : rep.violations) w.str(v);
  w.str(tracer.spansSince(spansBefore));
  w.u64(tracer.droppedSpans());
  return w.bytes();
}

bool decodeRep(const std::string& bytes, Rep& rep, Tracer& tracer) {
  Reader r(bytes);
  rep.sim = r.named();
  rep.digest = r.u64();
  rep.host = r.named();
  rep.deployUs = r.doubles();
  rep.removeUs = r.doubles();
  rep.sliceWalls = r.doubles();
  rep.timedFrames = r.u64();
  rep.framesSubmitted = r.u64();
  for (std::uint64_t n = r.u64(); r.ok() && n > 0; --n) {
    rep.violations.push_back(r.str());
  }
  const std::string spans = r.str();
  const std::uint64_t dropped = r.u64();
  if (!r.ok() || !r.atEnd()) return false;
  tracer.adoptSpans(spans, dropped);
  return true;
}

bool writeAll(int fd, const std::string& bytes) {
  for (std::size_t at = 0; at < bytes.size();) {
    const ssize_t n = write(fd, bytes.data() + at, bytes.size() - at);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += static_cast<std::size_t>(n);
  }
  return true;
}

std::string readAll(int fd) {
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return bytes;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
}

// Runs one rep in a forked process and returns its results; a rep process
// that fails to report comes back as a rep with a violation.
Rep runForked(const Workload& workload, const Options& opts, Tracer& tracer) {
  Rep rep;
  int fds[2];
  if (pipe(fds) != 0) {
    rep.violations.push_back(std::string("pipe: ") + std::strerror(errno));
    return rep;
  }
  std::cout.flush();
  std::fflush(nullptr);
  const std::size_t spansBefore = tracer.spanCount();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const Rep mine = workload.runRep(opts, tracer);
    _exit(writeAll(fds[1], encodeRep(mine, tracer, spansBefore)) ? 0 : 1);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    rep.violations.push_back(std::string("fork: ") + std::strerror(errno));
    return rep;
  }
  const std::string bytes = readAll(fds[0]);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !decodeRep(bytes, rep, tracer)) {
    rep = Rep{};
    rep.violations.push_back("rep process ended (wait status " +
                             std::to_string(status) +
                             ") without a complete result");
  }
  return rep;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--trace-out PATH] "
               "[--rev REV]\n"
               "       perfbench --inputs --workload NAME --seed N\n"
               "workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to report from a non-optimised build "
               "(build type "
            << PERFBENCH_BUILD_TYPE << ")\n";
  return 3;
#endif

  Options opts;
  std::string rev = "unknown";
  bool inputsOnly = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--scale") {
      const std::string scale = value();
      if (scale != "full" && scale != "tiny") {
        usage();
        return 2;
      }
      opts.scale = scale == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (arg == "--trace-out") {
      opts.traceOut = value();
    } else if (arg == "--rev") {
      rev = value();
    } else if (arg == "--inputs") {
      inputsOnly = true;
    } else {
      std::cerr << "perfbench: unknown argument " << arg << "\n";
      usage();
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << opts.workload << "'\n";
    usage();
    return 2;
  }
  if (inputsOnly) {
    std::cout << workload->inputs(opts) << "\n";
    return 0;
  }

  Tracer tracer(opts.trace);
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kMaxReps; ++i) {
    if (i >= kMinReps && secondsBetween(start, Clock::now()) >= opts.seconds) {
      break;
    }
    reps.push_back(runForked(*workload, opts, tracer));
  }

  // --- Gates across reps ------------------------------------------------------
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].framesSubmitted;
    for (const std::string& v : reps[i].violations) {
      violations.push_back("rep " + std::to_string(i) + ": " + v);
    }
    if (i > 0 && (reps[i].sim != reps[0].sim ||
                  reps[i].digest != reps[0].digest)) {
      violations.push_back("rep " + std::to_string(i) +
                           ": simulated results differ from rep 0");
    }
  }

  // --- Aggregate ----------------------------------------------------------------
  // Rep 0 runs first after start-up (cold file and CPU caches); when enough
  // reps ran, its wall-clock figures are left out.
  const std::size_t firstHostRep = reps.size() > kMinReps ? 1 : 0;
  auto hostMedian = [&](const std::string& name) {
    std::vector<double> v;
    for (std::size_t i = firstHostRep; i < reps.size(); ++i) {
      auto it = reps[i].host.find(name);
      if (it != reps[i].host.end()) v.push_back(it->second);
    }
    return median(std::move(v));
  };
  std::vector<double> deployUs;
  std::vector<double> removeUs;
  for (std::size_t i = firstHostRep; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    deployUs.insert(deployUs.end(), r.deployUs.begin(), r.deployUs.end());
    removeUs.insert(removeUs.end(), r.removeUs.begin(), r.removeUs.end());
  }
  const Rep& first = reps.front();
  // Median wall time of each slice over the reps (the slices are the same
  // simulated work in every rep; a rep that diverged is already a failure).
  double sliceWall = 0.0;
  for (std::size_t i = 0; i < first.sliceWalls.size(); ++i) {
    std::vector<double> walls;
    for (std::size_t r = firstHostRep; r < reps.size(); ++r) {
      if (i < reps[r].sliceWalls.size()) walls.push_back(reps[r].sliceWalls[i]);
    }
    sliceWall += median(std::move(walls));
  }
  const double framesPerS =
      sliceWall > 0.0 ? static_cast<double>(first.timedFrames) / sliceWall
                      : 0.0;
  auto value = [&](const std::string& name) -> double {
    if (name == "peak_rss_mb") return peakRssMb();
    if (name == "deploy_p50_us") return quantile(deployUs, 0.50);
    if (name == "deploy_p99_us") return quantile(deployUs, 0.99);
    if (name == "deploy_samples") return static_cast<double>(deployUs.size());
    if (name == "core.remove_us_p50") return quantile(removeUs, 0.50);
    if (name == "frames_per_s" || name == "trace.frames_per_s") {
      return framesPerS;
    }
    if (name == "trace.spans") return static_cast<double>(tracer.spanCount());
    auto it = first.sim.find(name);
    if (it != first.sim.end()) return it->second;
    return hostMedian(name);
  };

  if (opts.trace && !opts.traceOut.empty() &&
      !tracer.writeChromeJson(opts.traceOut)) {
    violations.push_back("cannot write trace " + opts.traceOut);
  }

  // --- Report -------------------------------------------------------------------
  auto simValue = [&first](const char* name) {
    auto it = first.sim.find(name);
    return it == first.sim.end() ? 0.0 : it->second;
  };
  // Every simulated result of rep 0 (all reps agree on them): what two runs
  // of one seed must reproduce byte for byte.
  std::string simJson = "{";
  for (const auto& [name, v] : first.sim) {
    simJson += (simJson.size() == 1 ? "" : ", ") + jsonString(name) + ": " +
               jsonNumber(v);
  }
  simJson += "}";
  std::string info = "{\"perfbench\": {\"workload\": " +
                     jsonString(workload->name) +
                     ", \"seed\": " + std::to_string(opts.seed) +
                     ", \"scale\": " +
                     jsonString(opts.scale == Scale::kTiny ? "tiny" : "full") +
                     ", \"reps\": " + std::to_string(reps.size()) +
                     ", \"digest\": " + jsonString(std::to_string(first.digest)) +
                     ", \"sim_events\": " + jsonNumber(simValue("sim.events")) +
                     ", \"sim\": " + simJson +
                     ", \"inputs\": " + workload->inputs(opts) +
                     ", \"machine\": {\"nproc\": " +
                     std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"compiler\": " + jsonString(std::string("gcc ") +
                                                     __VERSION__) +
                     ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"rev\": " + jsonString(rev) + "}";
  if (opts.trace) {
    info += ", \"trace_file\": " + jsonString(opts.traceOut) +
            ", \"dropped_spans\": " + std::to_string(tracer.droppedSpans());
  }
  info += ", \"rep_frames_per_s\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    info += (i == 0 ? "" : ", ") + jsonNumber(reps[i].host["frames_per_s"]);
  }
  info += "], \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    info += (i == 0 ? "" : ", ") + jsonString(violations[i]);
  }
  info += "]}}";
  std::cout << info << "\n";

  std::string metrics;
  auto emit = [&](const MetricDef& m) {
    metrics += (metrics.empty() ? "" : ", ") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(value(m.name)) +
               ", \"unit\": " + jsonString(m.unit) + "}";
  };
  if (opts.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::cout << "{\"correct\": " << (violations.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << violations.size() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return violations.empty() ? 0 : 1;
}
