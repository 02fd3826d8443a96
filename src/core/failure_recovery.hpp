#pragma once

// Failure recovery (the paper's §8 future-work item, implemented).
//
// A Coral TPU hangs off its tRPi's USB port; either can fail. When a TPU
// disappears, every pod holding a share on it loses part (or all) of its
// duty-cycle budget — frames routed there are dropped by the LB Service.
// Recovery replans each affected pod against the surviving pool:
//
//   1. the failed TPU is removed from the pool (its bookkeeping dies with
//      it — TpuState is control-plane state, nothing to salvage);
//   2. each affected pod's *surviving* shares are released, so the replan
//      sees the true free capacity;
//   3. pods are re-admitted in descending total-unit order (hardest first);
//      successes get fresh Load commands and LBS weights;
//   4. pods that no longer fit are evicted — the admission contract (§4.2)
//      is preserved: MicroEdge never oversubscribes a TPU to paper over a
//      failure, it sheds load explicitly.
//
// Ordering note: recovery must run after the pool reflects the failure and
// before the reclamation poller next runs (the testbed wires this).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/extended_scheduler.hpp"
#include "core/reclamation.hpp"
#include "util/status.hpp"

namespace microedge {

class FailureRecovery {
 public:
  struct Callbacks {
    // Installs a replanned composite on a surviving TPU Service.
    std::function<Status(const LoadCommand&)> loadModel;
    // Pushes replacement weights to the pod's LB Service.
    std::function<void(std::uint64_t podUid, const LbConfig&)> reconfigureLb;
    // The pod cannot be placed on the surviving pool; orchestration should
    // terminate it (and surface the reason to the client).
    std::function<void(std::uint64_t podUid, const Status& reason)> evictPod;
  };

  struct Report {
    std::size_t affectedPods = 0;
    std::size_t recoveredPods = 0;
    std::size_t evictedPods = 0;
    // Pods whose shares merely moved (recovered) vs. kept identical shares.
    std::size_t reshapedPods = 0;
  };

  FailureRecovery(TpuAllocator& allocator, Reclamation& reclamation,
                  Callbacks callbacks)
      : allocator_(allocator), reclamation_(reclamation),
        callbacks_(std::move(callbacks)) {}

  // Handles the loss of `tpuId`. Precondition: the TPU has already been
  // removed from the pool and its TPU Service from the data plane.
  Report onTpuFailure(const std::string& tpuId);

 private:
  TpuAllocator& allocator_;
  Reclamation& reclamation_;
  Callbacks callbacks_;
};

}  // namespace microedge
