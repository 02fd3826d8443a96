#pragma once

// Resource reclamation (§3.1 step 5, §4.2).
//
// An application pod eventually completes (or dies). The reclamation
// component periodically polls pod liveness; for every tracked pod that is
// no longer alive it subtracts the pod's TPU units from the CurrentLoad of
// the TPUs it was assigned. Models are NOT unloaded here: their reference
// counts drop inside AdmissionController::release, and the next co-compile
// on the TPU excludes zero-reference models (lazy reclamation).
//
// The tracked allocation is the only record of a pod's placement: failure
// recovery and the defragmenter retrack it when they replan, and a pod's LB
// weights are lbConfigFromAllocation of it.
//
// Driving the poll is the caller's job (a PeriodicTask in simulation, a
// thread in the in-process runtime) so this component stays clock-agnostic.

#include <cstdint>
#include <functional>
#include <map>

#include "core/admission.hpp"

namespace microedge {

class Reclamation {
 public:
  explicit Reclamation(TpuAllocator& admission) : admission_(admission) {}

  // Registers a pod's allocation for liveness tracking.
  void track(std::uint64_t podUid, Allocation allocation);
  bool isTracked(std::uint64_t podUid) const {
    return tracked_.count(podUid) > 0;
  }
  const Allocation* allocationOf(std::uint64_t podUid) const;
  // Live allocations, keyed by pod uid (used by failure recovery and the
  // defragmenter to replan placements).
  const std::map<std::uint64_t, Allocation>& trackedAllocations() const {
    return tracked_;
  }
  // Replaces a pod's tracked allocation after a replan (recovery/defrag).
  // The caller has already released the old shares and admitted new ones.
  void retrack(std::uint64_t podUid, Allocation allocation) {
    tracked_[podUid] = std::move(allocation);
  }
  // Drops tracking without touching the pool (the caller already released).
  void untrack(std::uint64_t podUid) { tracked_.erase(podUid); }

  // One poll cycle: reclaims every tracked pod for which isAlive returns
  // false. Returns the number reclaimed.
  std::size_t pollOnce(const std::function<bool(std::uint64_t)>& isAlive);

  // Immediate release (used when a later pipeline step fails after
  // admission succeeded, to avoid leaking units until the next poll).
  Status releaseNow(std::uint64_t podUid);

  std::size_t reclaimedCount() const { return reclaimed_; }

 private:
  TpuAllocator& admission_;
  std::map<std::uint64_t, Allocation> tracked_;
  std::size_t reclaimed_ = 0;
};

}  // namespace microedge
