#pragma once

// SweepRunner: turns a SweepGrid into work-stolen units of independent
// Simulator runs and merges the per-point results deterministically into
// one document:
//
//   {"sweep": 1, "grid": ..., "fingerprint": ...,
//    "points": [ {"i": 0, "seed": ..., "config": {...}, "result": {...}},
//                ... ]}
//
// Determinism contract (the subsystem's reason to exist):
//   merged_bytes = f(grid, point function)      — nothing else.
// Thread count, completion order, steals, and interrupted/resumed
// histories all produce the identical BENCH_sweep.json. Three mechanisms
// carry that guarantee:
//
//   1. Per-point isolation. Every point runs inside its own InternScope
//      (fresh intern tables for the worker thread) with a fresh Testbed/
//      Simulator built by the point function, and its seed comes from the
//      grid coordinates (deriveSweepSeed), so a point's result is
//      bit-identical to the same point run alone in a fresh process.
//   2. Slotted collection. Workers write into a per-point slot (no shared
//      accumulator), the manifest records completions in arrival order but
//      is folded back by index, and the merge reads the slots in index
//      order.
//   3. Canonical serialization. util/json prints one spelling per value.
//
// The merged document deliberately excludes anything run-dependent (wall
// clock, thread count); timing lives in the report and the stderr progress
// lines instead, so two runs can be compared byte for byte.
//
// Work distribution is the WorkStealingPool (tail imbalance across grid
// points is the real scheduling problem; see thread_pool.hpp). Progress is
// wall-clock: a reporter thread prints completed/total and an ETA to
// stderr once a second while workers run.

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sweep/checkpoint.hpp"
#include "sweep/grid.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace microedge {

// Runs one grid point, returning its result object. Must be thread-safe in
// the trivial sense: everything it touches is built inside the call (the
// runner supplies the InternScope; hidden process-global state is a bug —
// see the InternScope notes in util/intern.hpp).
using SweepPointFn = std::function<JsonValue(const SweepPoint&)>;

struct SweepOptions {
  // 1 = serial path (inline on the calling thread, canonical grid order).
  unsigned threads = 1;
  // Merged document path; empty = keep the merge in memory only.
  std::string outPath;
  // Checkpoint manifest path; empty disables checkpointing.
  std::string manifestPath;
  // Fold a pre-existing manifest in and run only the missing points.
  bool resume = false;
  // Test hook / simulated kill: run at most this many new points (0 = all).
  // The sweep then reports complete=false and writes no merged output —
  // exactly the state an interrupted run leaves behind.
  std::size_t maxNewPoints = 0;
  // Wall-clock progress lines (to *progressOut, default std::cerr).
  bool progress = false;
  std::ostream* progressOut = nullptr;
};

struct SweepReport {
  std::size_t totalPoints = 0;
  std::size_t ran = 0;      // executed this run
  std::size_t resumed = 0;  // folded in from the manifest
  std::size_t stolen = 0;   // tasks that changed workers (pool telemetry)
  double wallSeconds = 0.0;
  bool complete = false;
  JsonValue merged;  // valid when complete
};

StatusOr<SweepReport> runSweep(const SweepGrid& grid, const SweepPointFn& fn,
                               const SweepOptions& options);

// File-level conveniences for the sweep_runner CLI and tests.
Status writeTextFile(const std::string& path, const std::string& contents);
StatusOr<std::string> readTextFile(const std::string& path);

}  // namespace microedge
