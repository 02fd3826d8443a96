#pragma once

// SweepRunner: runs every point of a SweepGrid as an independent Simulator
// run and merges the per-point results deterministically into one
// document:
//
//   {"sweep": 1, "grid": ..., "fingerprint": ...,
//    "points": [ {"i": 0, "seed": ..., "config": {...}, "result": {...}},
//                ... ]}
//
// Determinism contract (the subsystem's reason to exist):
//   merged_bytes = f(grid, point function)      — nothing else.
// Every thread count and completion order produces the identical
// BENCH_sweep.json. Three mechanisms carry that guarantee:
//
//   1. Per-point isolation. Every point runs inside its own InternScope
//      (fresh intern tables for the worker thread) with a fresh Testbed/
//      Simulator built by the point function, and its seed comes from the
//      grid coordinates (deriveSweepSeed), so a point's result is
//      bit-identical to the same point run alone in a fresh process.
//   2. Slotted collection. Workers write into a per-point slot (no shared
//      accumulator), and the merge reads the slots in index order.
//   3. Canonical serialization. util/json prints one spelling per value.
//
// The merged document deliberately excludes anything run-dependent (wall
// clock, thread count); timing lives in the report instead, so two runs can
// be compared byte for byte.
//
// Work distribution: each worker claims the next point from one shared
// counter until none is left. A point is a whole simulation run, so
// the claim costs nothing next to it, and a worker that drew a cheap point
// simply claims another — the built-in grids' points differ in cost by up
// to 4x (fig6) and finish in about a second in total.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

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
  // Worker threads, never more than points. 0 or 1 runs the points inline
  // on the calling thread, in canonical grid order.
  unsigned threads = 1;
  // Merged document path; empty = keep the merge in memory only.
  std::string outPath;
};

struct SweepReport {
  std::size_t totalPoints = 0;
  double wallSeconds = 0.0;
  JsonValue merged;
};

StatusOr<SweepReport> runSweep(const SweepGrid& grid, const SweepPointFn& fn,
                               const SweepOptions& options);

}  // namespace microedge
