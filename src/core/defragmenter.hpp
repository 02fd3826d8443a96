#pragma once

// Defragmenter: replans placements to undo churn-induced fragmentation.
//
// Workload partitioning eliminates fragmentation *at admission time*, but a
// dynamic fleet (§6.3: streams come and go) scatters residual load: a pod
// admitted during a burst may be split 0.2/0.15/0.25 across three TPUs that
// later empty out, and the pool ends up with many lightly-loaded TPUs whose
// free units no single-TPU request can use efficiently. Because TPU Service
// execution is stateless per request, migrating a share is cheap: a Load on
// the target TPU (if the model is not resident) plus an LBS weight update —
// no state transfer, in-flight frames drain on the old route.
//
// replanAll() performs a full First-Fit-Decreasing repack of every live
// allocation. It is transactionally safe: the pool is snapshotted, and if
// the repack cannot place everything (possible under model-size
// constraints), the snapshot is restored and nothing is touched.

#include <cstdint>
#include <functional>

#include "core/admission.hpp"
#include "core/reclamation.hpp"
#include "util/status.hpp"

namespace microedge {

class Defragmenter {
 public:
  struct Callbacks {
    std::function<Status(const LoadCommand&)> loadModel;
    std::function<void(std::uint64_t podUid, const LbConfig&)> reconfigureLb;
  };

  struct Report {
    bool applied = false;          // false => rolled back, nothing changed
    std::size_t podsReplanned = 0; // pods whose shares changed
    std::size_t sharesBefore = 0;
    std::size_t sharesAfter = 0;
    std::size_t usedTpusBefore = 0;
    std::size_t usedTpusAfter = 0;
  };

  Defragmenter(AdmissionController& admission, Reclamation& reclamation,
               Callbacks callbacks)
      : admission_(admission), reclamation_(reclamation),
        callbacks_(std::move(callbacks)) {}

  // Full First-Fit-Decreasing repack of all live allocations.
  Report replanAll();

 private:
  Status pushPlacement(std::uint64_t uid, const AdmitResult& result);

  AdmissionController& admission_;
  Reclamation& reclamation_;
  Callbacks callbacks_;
};

}  // namespace microedge
