#pragma once

// One TPU pool's control plane (§3.1, §4, §8): the pool, its allocator,
// reclamation, failure recovery and, in MicroEdge modes, the defragmenter,
// over the data plane that runs their Loads. Testbed runs one for the whole
// cluster; ShardedCluster one per rack, on the rack's shard.
//
// Admission is the paper's workflow: admit against the pool, Load the new
// composites (DataPlane::executeLoad; a failed Load refuses the pod and
// returns its units), hand back the pod's LB weights, and track the
// allocation with reclamation, the only record of the placement. Replans
// Load through DataPlane::executeLoadOrRetry and reach pods only through
// the two hooks: new weights for a pod's client, and eviction.
//
// Scheduling modes mirror the paper's evaluation variants:
//   kBaselineDedicated — integral TPUs dedicated per camera, collocated
//                        client (the §6.2 bare-metal baseline);
//   kMicroEdgeNoWp     — fractional sharing, no workload partitioning;
//   kMicroEdgeWp       — fractional sharing + workload partitioning.
// Co-compiling can be toggled independently (the Fig. 6 2x2).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/tpu_device.hpp"
#include "core/admission.hpp"
#include "core/defragmenter.hpp"
#include "core/failure_recovery.hpp"
#include "core/reclamation.hpp"
#include "dataplane/dataplane.hpp"
#include "orch/pod.hpp"

namespace microedge {

enum class SchedulingMode { kBaselineDedicated, kMicroEdgeNoWp, kMicroEdgeWp };

std::string_view toString(SchedulingMode mode);

struct ControlPlaneConfig {
  SchedulingMode mode = SchedulingMode::kMicroEdgeWp;
  bool enableCoCompile = true;
  PackingStrategy strategy = PackingStrategy::kFirstFit;
};

// The pool's allocator for a mode: the dedicated baseline, or Algorithm 1
// with or without workload partitioning.
std::unique_ptr<TpuAllocator> makeAllocator(const ControlPlaneConfig& config,
                                            TpuPool& pool,
                                            const ModelRegistry& registry);

class ControlPlane {
 public:
  // The harness's pod-facing edges.
  struct Hooks {
    // New weights for a pod's client after a replan.
    std::function<void(std::uint64_t uid, const LbConfig&)> pushLb;
    // A pod the surviving pool cannot place: the harness stops it.
    std::function<void(std::uint64_t uid, const Status& reason)> evict;
  };

  ControlPlane(DataPlane& dataPlane, const ModelRegistry& registry,
               ControlPlaneConfig config, Hooks hooks);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Adds a TPU to the pool (cluster boot).
  void addTpu(const TpuDevice& tpu);

  // ApiServer::SchedulerExtension entry point (the K3s extension): admits a
  // TPU pod and binds it to the default scheduler's best candidate;
  // CPU/memory placement stays native K3s.
  StatusOr<std::string> schedule(const Pod& pod,
                                 const std::vector<std::string>& candidates);
  // Admits `units` of `model` for pod `uid`, Loads the new composites and
  // tracks the allocation; returns the pod's LB weights.
  StatusOr<LbConfig> admit(std::uint64_t uid, const std::string& model,
                           TpuUnit units);

  // The pool forgets the TPU and recovery replans its tenants onto the
  // survivors, or evicts them. A TPU the pool lacks (failed earlier, or not
  // in this pool) changes nothing and returns an empty report.
  FailureRecovery::Report failTpu(const std::string& tpuId);
  // Full FFD replan of every live allocation. The dedicated baseline has
  // nothing to replan and returns an un-applied report.
  Defragmenter::Report defragment();

  TpuPool& pool() { return pool_; }
  Reclamation& reclamation() { return reclamation_; }
  // Algorithm 1's controller; null under the dedicated baseline.
  AdmissionController* admission() { return admission_; }

 private:
  DataPlane& dataPlane_;
  TpuPool pool_;
  std::unique_ptr<TpuAllocator> allocator_;
  AdmissionController* admission_;
  Reclamation reclamation_;
  FailureRecovery recovery_;
  std::optional<Defragmenter> defragmenter_;
};

}  // namespace microedge
