#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "sweep/thread_pool.hpp"
#include "util/intern.hpp"
#include "util/strings.hpp"

namespace microedge {

namespace {

using WallClock = std::chrono::steady_clock;

double secondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

// One completed point, fully described (config + seed are embedded so the
// merged file is self-contained and replayable).
JsonValue pointDocument(SweepPoint point, JsonValue result) {
  JsonValue p = JsonValue::object();
  p.set("i", point.index);
  p.set("seed", point.seed);
  p.set("config", std::move(point.values));
  p.set("result", std::move(result));
  return p;
}

// Once-a-second completed/total + ETA lines while workers run. Joined (and
// thereby quiesced) before any result is read, so it needs nothing beyond
// one atomic counter.
class ProgressReporter {
 public:
  ProgressReporter(std::ostream& out, std::string label, std::size_t total,
                   std::size_t resumed, const std::atomic<std::size_t>& done)
      : out_(out),
        label_(std::move(label)),
        total_(total),
        resumed_(resumed),
        done_(done),
        start_(WallClock::now()),
        thread_([this] { loop(); }) {}

  ~ProgressReporter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    print();  // final line: 100% with the total wall time
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::seconds(1),
                         [this] { return stop_; })) {
      print();
    }
  }

  void print() {
    const std::size_t done = done_.load(std::memory_order_relaxed);
    const double elapsed = secondsSince(start_);
    std::string line = strCat("sweep ", label_, ": ", resumed_ + done, "/",
                              total_, " points");
    if (resumed_ > 0) line += strCat(" (", resumed_, " resumed)");
    line += strCat(", ", fmtDouble(elapsed, 1), "s elapsed");
    const std::size_t remaining = total_ - resumed_ - done;
    if (done > 0 && remaining > 0) {
      line += strCat(", eta ",
                     fmtDouble(elapsed / static_cast<double>(done) *
                                   static_cast<double>(remaining),
                               1),
                     "s");
    }
    out_ << line << "\n";
  }

  std::ostream& out_;
  std::string label_;
  std::size_t total_;
  std::size_t resumed_;
  const std::atomic<std::size_t>& done_;
  WallClock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

StatusOr<SweepReport> runSweep(const SweepGrid& grid, const SweepPointFn& fn,
                               const SweepOptions& options) {
  const auto start = WallClock::now();
  const std::size_t total = grid.pointCount();
  if (total == 0) return invalidArgument("sweep: empty grid");
  const std::string fingerprint = grid.fingerprint();

  SweepReport report;
  report.totalPoints = total;

  // Per-point result slots. A slot is written by exactly one worker task
  // (or prefilled from the manifest before workers start) and read only
  // after the pool joins — no locking, no ordering sensitivity.
  std::vector<JsonValue> slots(total);
  std::vector<char> present(total, 0);

  SweepManifest manifest(options.manifestPath.empty() ? std::string()
                                                      : options.manifestPath);
  if (!options.manifestPath.empty()) {
    if (options.resume) {
      StatusOr<std::vector<SweepManifest::Entry>> entries =
          manifest.load(fingerprint, total);
      if (!entries.isOk()) return entries.status();
      for (SweepManifest::Entry& entry : *entries) {
        if (present[entry.pointIndex]) continue;  // later dup wins nothing
        slots[entry.pointIndex] = pointDocument(grid.point(entry.pointIndex),
                                                std::move(entry.result));
        present[entry.pointIndex] = 1;
        ++report.resumed;
      }
    }
    ME_RETURN_IF_ERROR(
        manifest.openForAppend(grid.name(), fingerprint, options.resume));
  }

  // Missing points, in canonical order (the serial path runs them exactly
  // in this order; parallel order is irrelevant by construction).
  std::vector<std::size_t> pending;
  pending.reserve(total - report.resumed);
  for (std::size_t i = 0; i < total; ++i) {
    if (!present[i]) pending.push_back(i);
  }
  if (options.maxNewPoints > 0 && pending.size() > options.maxNewPoints) {
    pending.resize(options.maxNewPoints);
  }

  std::atomic<std::size_t> done{0};
  const bool checkpointing = !options.manifestPath.empty();
  auto runPoint = [&](std::size_t index) {
    // Fresh intern tables for this point: handle values become a pure
    // function of the point's own intern sequence, bit-identical to a solo
    // run (and the tables cannot grow across a long sweep).
    InternScope scope;
    SweepPoint p = grid.point(index);
    JsonValue result = fn(p);
    if (checkpointing) manifest.append(index, result);
    slots[index] = pointDocument(std::move(p), std::move(result));
    present[index] = 1;
    done.fetch_add(1, std::memory_order_relaxed);
  };

  {
    std::unique_ptr<ProgressReporter> reporter;
    if (options.progress) {
      reporter = std::make_unique<ProgressReporter>(
          options.progressOut != nullptr ? *options.progressOut : std::cerr,
          grid.name(), total, report.resumed, done);
    }
    // No more workers than points: an idle worker only spins on steals.
    WorkStealingPool pool(static_cast<unsigned>(
        std::min<std::size_t>(options.threads, pending.size())));
    std::vector<WorkStealingPool::Task> tasks;
    tasks.reserve(pending.size());
    for (std::size_t index : pending) {
      tasks.push_back([&runPoint, index] { runPoint(index); });
    }
    pool.run(std::move(tasks));
    report.stolen = pool.stolenCount();
  }
  report.ran = done.load();

  report.complete = report.resumed + report.ran == total;
  report.wallSeconds = secondsSince(start);
  if (!report.complete) return report;  // interrupted (maxNewPoints)

  // Merge: the slots in index order, so the document is independent of
  // which worker ran what.
  JsonValue points = JsonValue::array();
  for (JsonValue& slot : slots) points.push(std::move(slot));
  report.merged = JsonValue::object();
  report.merged.set("sweep", 1);
  report.merged.set("grid", grid.name());
  report.merged.set("fingerprint", fingerprint);
  report.merged.set("points", std::move(points));

  if (!options.outPath.empty()) {
    ME_RETURN_IF_ERROR(
        writeTextFile(options.outPath, report.merged.dump(2) + "\n"));
  }
  report.wallSeconds = secondsSince(start);
  return report;
}

Status writeTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    return internalError(strCat("cannot open ", path, " for writing"));
  }
  out << contents;
  out.flush();
  if (!out.good()) return internalError(strCat("short write to ", path));
  return Status::ok();
}

StatusOr<std::string> readTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return notFound(strCat("cannot open ", path));
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace microedge
