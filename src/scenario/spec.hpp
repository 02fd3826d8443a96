#pragma once

// Declarative scenario specs (DESIGN.md §15).
//
// A ScenarioSpec is a seeded description of a time-varying workload — the
// shape of the traffic, not the cluster serving it:
//
//   * diurnal   — a piecewise-linear (or sampled-sinusoid) fps-multiplier
//                 envelope over the whole fleet: the time-of-day curve.
//   * flash     — per-tenant multiplicative crowds with ramp / hold / decay
//                 edges stacked on top of the diurnal curve.
//   * churn     — cameras joining mid-run (admitted live) and leaving
//                 (drained: in-flight frames still reach exactly one
//                 terminal outcome, ledger charges credited).
//   * failures  — rack-scoped correlated fault groups, compiled into the
//                 existing FaultPlan format so the injector, replay and
//                 chaos-soak machinery apply unchanged.
//   * phases    — named time segments; the harness snapshots windowed
//                 metrics (goodput, attainment, rung occupancy) at each
//                 phase boundary.
//
// A spec is pure data, built in code (builtinScenario; no program reads one
// from a file), with a deterministic JSON dump and, like SweepGrid, a
// fingerprint of it; scenario/engine.hpp compiles it into a timeline of
// simulator events. "Tenant" is an abstract index the harness maps onto
// its own multi-tenancy unit (the sharded harness: one tenant per rack);
// tenant -1 addresses every tenant.
//
// All times are seconds from run start; all rate knobs are fps multipliers
// (1.0 = the harness's nominal rate). `quantumNs` is the tick-lattice
// quantum handed to every stream's StreamRateControl — the determinism rule
// that keeps re-timed streams collision-free across shard counts (see
// testbed/rate_control.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/status.hpp"

namespace microedge {

struct DiurnalSpec {
  struct Point {
    double atS = 0.0;
    double multiplier = 1.0;
  };
  // Piecewise-linear control points, strictly ascending in time. Empty =
  // flat 1.0. Before the first / after the last point the envelope holds
  // that point's value.
  std::vector<Point> points;
};

struct FlashCrowdSpec {
  int tenant = -1;  // -1 = every tenant
  double startS = 0.0;
  double rampS = 1.0;   // linear rise 1.0 -> peak
  double holdS = 1.0;   // flat at peak
  double decayS = 1.0;  // linear fall peak -> 1.0
  double peakMultiplier = 2.0;
};

struct ChurnSpec {
  int tenant = -1;      // hosting tenant; -1 = round-robin over tenants
  double joinS = 0.0;   // <= 0: present from the start
  double leaveS = 0.0;  // <= 0: never leaves
  int count = 1;        // cameras this entry adds
};

struct FailureGroupSpec {
  double atS = 1.0;
  int tenant = 0;  // rack whose TPU hosts die together
  int count = 0;   // tRPis to kill, in rack order; 0 = the whole rack
};

struct PhaseSpec {
  std::string name;
  double untilS = 0.0;  // phase boundary; strictly ascending across phases
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::uint64_t seed = 1;  // keys the compiled FaultPlan
  double horizonS = 10.0;
  // Envelope sampling interval: the engine emits one rate update per tenant
  // at each multiple of this where the envelope value changed.
  double envelopePeriodS = 0.25;
  // Tick-lattice quantum (testbed/rate_control.hpp). Must exceed the
  // harness's stream count; 0 disables the lattice (and with it the
  // cross-shard-count byte-identity guarantee for re-timed streams).
  std::int64_t quantumNs = 1 << 20;
  // Data-plane-to-control-plane detection gap for compiled failures.
  double detectionDelayS = 0.75;

  DiurnalSpec diurnal;
  std::vector<FlashCrowdSpec> flash;
  std::vector<ChurnSpec> churn;
  std::vector<FailureGroupSpec> failures;
  std::vector<PhaseSpec> phases;  // empty = one phase "run" to the horizon

  // Structural sanity: ordered diurnal points / phases, positive horizon
  // and quantum, edge durations >= 0, churn windows inside the horizon,
  // and every time the engine converts within SimDuration's range.
  Status validate() const;

  JsonValue toJson() const;
  // jsonFingerprint(toJson()): names the scenario in dumps the way
  // SweepGrid::fingerprint names grids.
  std::string fingerprint() const;
};

// Built-in scenarios ("diurnal" | "flashcrowd" | "churn" | "failures" |
// "city" — the combined everything-at-once workload the determinism tests
// pin). NotFound otherwise.
StatusOr<ScenarioSpec> builtinScenario(const std::string& name);

}  // namespace microedge
