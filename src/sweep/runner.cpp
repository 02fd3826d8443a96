#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

#include "util/intern.hpp"
#include "util/strings.hpp"

namespace microedge {

namespace {

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

}  // namespace

StatusOr<SweepReport> runSweep(const SweepGrid& grid, const SweepPointFn& fn,
                               const SweepOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t total = grid.pointCount();
  if (total == 0) return invalidArgument("sweep: empty grid");

  SweepReport report;
  report.totalPoints = total;

  // Per-point result slots. A slot is written by exactly one worker and
  // read only after the workers join — no locking, no ordering
  // sensitivity.
  std::vector<JsonValue> slots(total);
  std::atomic<std::size_t> next{0};
  // The serial path claims the points in canonical order; parallel order is
  // irrelevant by construction.
  auto worker = [&] {
    for (std::size_t index = next++; index < total; index = next++) {
      // Fresh intern tables for this point: handle values become a pure
      // function of the point's own intern sequence, bit-identical to a
      // solo run (and the tables cannot grow across a long sweep).
      InternScope scope;
      SweepPoint p = grid.point(index);
      JsonValue result = fn(p);
      slots[index] = pointDocument(std::move(p), std::move(result));
    }
  };
  const std::size_t workers = std::min<std::size_t>(options.threads, total);
  if (workers <= 1) {
    worker();
  } else {
    // jthreads join on destruction, so the block ends only when every
    // worker has, even if starting a later one throws.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
  }

  // Merge: the slots in index order, so the document is independent of
  // which worker ran what.
  JsonValue points = JsonValue::array();
  for (JsonValue& slot : slots) points.push(std::move(slot));
  report.merged = JsonValue::object();
  report.merged.set("sweep", 1);
  report.merged.set("grid", grid.name());
  report.merged.set("fingerprint", grid.fingerprint());
  report.merged.set("points", std::move(points));

  if (!options.outPath.empty()) {
    ME_RETURN_IF_ERROR(
        writeTextFile(options.outPath, report.merged.dump(2) + "\n"));
  }
  report.wallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return report;
}

}  // namespace microedge
