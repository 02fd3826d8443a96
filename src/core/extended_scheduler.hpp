#pragma once

// The extended scheduler: MicroEdge's K3s control-plane extension (§3, §4).
//
// Plugs into the ApiServer as its SchedulerExtension. For a pod requesting
// TPU resources it:
//   1. runs admission control (Algorithm 1) against the TPU pool;
//   2. issues Load commands to the affected TPU Services (via a data-plane
//      callback) so the new co-compiled composites become resident;
//   3. derives the pod's load-balancing weights from the allocation shares
//      and pushes them to the pod's LB Service (§3.1 step 4);
//   4. registers the allocation with the Reclamation component;
//   5. returns the node to bind the pod to (the default scheduler's best
//      candidate — CPU/memory placement stays native K3s).
//
// Any failure after admission rolls the units back, so a rejected deployment
// leaves no residue.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/reclamation.hpp"
#include "orch/pod.hpp"
#include "util/status.hpp"

namespace microedge {

// One downstream TPU Service and its share of the pod's requests. Weights
// are integer milli-units, consumed directly by the smooth-WRR scheduler.
struct LbWeight {
  TpuId tpu{};
  std::uint32_t weight = 0;
};

struct LbConfig {
  std::vector<LbWeight> weights;
  bool empty() const { return weights.empty(); }
};

class ExtendedScheduler {
 public:
  struct Callbacks {
    // Installs a co-compiled composite on a TPU Service (Load primitive).
    std::function<Status(const LoadCommand&)> loadModel;
    // Seeds the pod's LB Service with partition weights.
    std::function<void(std::uint64_t podUid, const LbConfig&)> configureLb;
  };

  ExtendedScheduler(TpuAllocator& admission, Reclamation& reclamation,
                    Callbacks callbacks = {});

  // ApiServer::SchedulerExtension entry point.
  StatusOr<std::string> schedule(const Pod& pod,
                                 const std::vector<std::string>& candidates);

  // LB configuration of a live pod (empty config if unknown).
  const LbConfig* lbConfig(std::uint64_t podUid) const;
  // Called when reclamation drops a pod (testbed wires this to pollOnce).
  void forgetPod(std::uint64_t podUid) { lbConfigs_.erase(podUid); }
  // Replaces a pod's recorded LB config after a replan by failure recovery
  // or the defragmenter.
  void recordLbConfig(std::uint64_t podUid, LbConfig config) {
    lbConfigs_[podUid] = std::move(config);
  }

  static LbConfig lbConfigFromAllocation(const Allocation& allocation);

  TpuAllocator& admission() { return admission_; }
  Reclamation& reclamation() { return reclamation_; }

 private:
  TpuAllocator& admission_;
  Reclamation& reclamation_;
  Callbacks callbacks_;
  std::map<std::uint64_t, LbConfig> lbConfigs_;
};

}  // namespace microedge
