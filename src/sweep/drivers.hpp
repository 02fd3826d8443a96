#pragma once

// Point functions and built-in grids for the experiments the sweep runner
// serves (Fig. 5 capacity/utilization, Fig. 6 trace study).
//
// A grid's "driver" field names the PointFn that interprets its points:
//
//   "scalability" — one runScalabilityPoint (admission fill + data-plane
//       horizon) per point. Fields: model, fps, mode (baseline|no_wp|wp),
//       tpus; optional tpus_per_node, horizon_s, camera_upper_bound, seed
//       (explicit seed overrides the derived per-point seed so paper-shape
//       grids reproduce the fixed-seed bench output). tpus must be a
//       positive multiple of tpus_per_node (default 1).
//   "trace" — one runTraceScenario (MAF-like replay) per point. Fields:
//       mode, co_compile; optional horizon_min, capacity_units, window_s
//       (positive), seed.
//
// A point whose fields a driver rejects yields {"error": "..."} in place of
// its result, so one bad point neither stops the sweep nor hides in it.
//   "scenario" — one ShardedCluster scenario run (DESIGN.md §15) per point:
//       SLO attainment x load shape x control policy. Fields: scenario
//       (builtin name: diurnal|flashcrowd|churn|failures|city), policy
//       (none|admit|degrade|full); optional peak (flash-crowd multiplier
//       override), fps, slo_ms, shards, racks, vrpis_per_rack,
//       streams_per_vrpi, seed.
//
// The smoke grid is a milliseconds-cheap scalability grid (tiny horizon,
// small camera cap) used by the CI determinism check and tests.
//
// Every driver builds its entire world inside the call, which combined
// with the runner's InternScope makes points bit-reproducible regardless
// of what other workers are doing.

#include <string>

#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "util/status.hpp"

namespace microedge {

// Resolves a grid's driver name. Unknown names -> NotFound.
StatusOr<SweepPointFn> findSweepDriver(const std::string& name);

// Built-in grids, dumpable via toJson() (sweep_runner --dump-grid).
SweepGrid fig5SweepGrid();   // scalability: Coral-Pie + BodyPix series
SweepGrid fig6SweepGrid();   // trace: the five scheduling variants
SweepGrid smokeSweepGrid();  // tiny deterministic grid for CI smoke
// SLO attainment x load shape x {none, admit, degrade, full}: every builtin
// scenario against every control-policy bundle.
SweepGrid scenarioSweepGrid();

// Grid by name ("fig5" | "fig6" | "smoke" | "scenario") -> NotFound
// otherwise.
StatusOr<SweepGrid> builtinSweepGrid(const std::string& name);

}  // namespace microedge
