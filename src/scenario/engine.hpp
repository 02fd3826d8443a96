#pragma once

// Scenario compiler (DESIGN.md §15): turns a declarative ScenarioSpec into
// the concrete, deterministic timeline a harness arms at setup.
//
//   * rate updates — the diurnal x flash envelope sampled on the spec's
//     envelope period, one update per tenant at each sample where the value
//     changed (a tenant-uniform scenario collapses to a single tenant=-1
//     series). The harness schedules each update onto the affected streams'
//     owner shards as an emitter-tagged event.
//   * churn — entries expanded to per-camera (tenant, joinAt, leaveAt)
//     triples with a deterministic round-robin tenant assignment.
//   * failures — rack-scoped fault groups compiled into the existing
//     FaultPlan format (kNodeDeath per member tRPi, the spec's detection
//     delay); the harness arms them through its FaultInjector like any
//     hand-written plan, so replay tooling runs unchanged.
//   * phases — boundaries normalized to cover exactly [0, horizon].
//
// Everything here is a pure function of (spec, tenant count, node names):
// no RNG beyond the seed carried into the FaultPlan, no clocks — the same
// spec compiles to the same timeline on every shard count and every rerun.

#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "sim/fault_injector.hpp"
#include "util/time.hpp"

namespace microedge {

// Envelope value (diurnal x applicable flash crowds) for `tenant` at `atS`
// seconds — the continuous signal the rate updates sample.
double scenarioEnvelopeAt(const ScenarioSpec& spec, int tenant, double atS);

struct ScenarioRateUpdate {
  SimDuration at{};
  int tenant = -1;  // -1 = every tenant
  double multiplier = 1.0;
};

struct ScenarioChurnCamera {
  int tenant = 0;
  SimDuration joinAt{};   // zero = present from the start
  SimDuration leaveAt{};  // zero = never leaves
};

struct CompiledScenario {
  SimDuration horizon{};
  // Sorted by (at, tenant); at most one update per (sample, tenant).
  std::vector<ScenarioRateUpdate> rateUpdates;
  std::vector<ScenarioChurnCamera> churn;
  std::vector<std::string> phaseNames;
  std::vector<SimDuration> phaseEnds;  // ascending; back() == horizon
};

// Compiles the spec for a harness with `tenants` tenants. The spec must
// already validate().
CompiledScenario compileScenario(const ScenarioSpec& spec, int tenants);

// Correlated failure groups -> FaultPlan. `nodesByRack[r]` lists rack r's
// TPU-hosting nodes in rack order (the harness supplies its topology's
// names); group entries naming a tenant with no rack are ignored.
FaultPlan compileScenarioFaults(
    const ScenarioSpec& spec,
    const std::vector<std::vector<std::string>>& nodesByRack);

}  // namespace microedge
