#pragma once

// Offline admission planner.
//
// Operators deciding how many TPUs a site needs (or whether a new tenant
// fits an existing cluster) shouldn't have to deploy to find out. The
// planner consumes a scenario document — cluster size, scheduler
// configuration, ordered pod list — and produces exactly the placement the
// control plane would make (it builds the same allocator, makeAllocator):
// per-pod TPU shares (the LBS weights),
// per-TPU residual capacity and resident models, and a reason string for
// every rejection.
//
// Scenario YAML:
//
//   cluster:
//     tpus: 6
//     param-memory-mb: 6.9        # optional
//   scheduler:
//     mode: microedge-wp          # baseline | microedge | microedge-wp
//     co-compile: true            # optional
//     strategy: first-fit         # first-fit | next-fit | best-fit | worst-fit
//   pods:
//     - name: gate-cam
//       model: ssd-mobilenet-v2
//       fps: 15                   # tpu-units profiled from the zoo, or:
//     - name: lobby-seg
//       model: bodypix-mobilenet-v1
//       tpu-units: 1.2            # explicit duty cycle

#include <string>
#include <vector>

#include "core/admission.hpp"
#include "models/registry.hpp"
#include "testbed/testbed.hpp"
#include "util/status.hpp"

namespace microedge {

struct PlannerScenario {
  int tpus = 6;
  double paramMemoryMb = 6.9;
  SchedulingMode mode = SchedulingMode::kMicroEdgeWp;
  bool coCompile = true;
  PackingStrategy strategy = PackingStrategy::kFirstFit;

  struct PodRequest {
    std::string name;
    std::string model;
    double fps = 15.0;
    double tpuUnits = 0.0;  // 0 => profile from the zoo at `fps`
  };
  std::vector<PodRequest> pods;
};

// Parses and validates a scenario (models must exist in the registry).
StatusOr<PlannerScenario> scenarioFromYaml(const std::string& yamlText,
                                           const ModelRegistry& registry);

struct PlannerResult {
  struct Placement {
    std::string pod;
    std::string model;
    double units = 0.0;
    bool accepted = false;
    std::vector<TpuShare> shares;  // empty when rejected
    std::string reason;            // rejection reason
  };
  struct TpuRow {
    std::string id;
    double load = 0.0;
    double usedParamMb = 0.0;
    std::vector<ModelId> models;  // live models, in first-load order
  };

  std::vector<Placement> placements;
  std::vector<TpuRow> tpus;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

// Replays the pod list through the chosen allocator (pure control plane, no
// simulation) and reports the resulting plan.
PlannerResult planScenario(const PlannerScenario& scenario,
                           const ModelRegistry& registry);

// Human-readable plan (placement table + per-TPU summary).
std::string renderPlan(const PlannerScenario& scenario,
                       const PlannerResult& result);

// Goes beyond planning: deploys the scenario's pods on a full simulated
// cluster, streams frames for `horizon`, and reports what the plan
// *delivers* — per-stream achieved FPS and latency, SLO compliance and
// measured TPU utilization.
struct SimulationOutcome {
  struct StreamRow {
    std::string pod;
    bool admitted = false;
    double achievedFps = 0.0;
    double p99LatencyMs = 0.0;
    bool sloMet = false;
  };
  std::vector<StreamRow> streams;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  double meanTpuUtilization = 0.0;
};

SimulationOutcome simulateScenario(const PlannerScenario& scenario,
                                   SimDuration horizon);

std::string renderSimulation(const PlannerScenario& scenario,
                             const SimulationOutcome& outcome,
                             SimDuration horizon);

}  // namespace microedge
