#include "core/failure_recovery.hpp"

#include <algorithm>

#include "core/extended_scheduler.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace microedge {

FailureRecovery::Report FailureRecovery::onTpuFailure(
    const std::string& tpuId) {
  Report report;

  // Collect the pods that held a share on the failed TPU.
  struct Affected {
    std::uint64_t uid;
    Allocation allocation;
  };
  std::vector<Affected> affected;
  const TpuId failed = lookupTpu(tpuId);
  for (const auto& [uid, allocation] : reclamation_.trackedAllocations()) {
    for (const TpuShare& share : allocation.shares) {
      if (share.tpu == failed) {
        affected.push_back(Affected{uid, allocation});
        break;
      }
    }
  }
  report.affectedPods = affected.size();
  if (affected.empty()) return report;

  // Release surviving shares first so the replan sees all free capacity.
  // (release() skips shares on the failed TPU — it left the pool.)
  for (const Affected& pod : affected) {
    Status released = allocator_.release(pod.allocation);
    if (!released.isOk()) {
      ME_LOG(kError) << "recovery: releasing pod uid " << pod.uid
                     << " failed: " << released.toString();
    }
    reclamation_.untrack(pod.uid);
  }

  // Hardest-to-place first (descending total units).
  std::sort(affected.begin(), affected.end(),
            [](const Affected& a, const Affected& b) {
              return a.allocation.totalUnits() > b.allocation.totalUnits();
            });

  for (const Affected& pod : affected) {
    auto replanned = allocator_.admit(pod.uid, pod.allocation.model,
                                      pod.allocation.totalUnits());
    if (!replanned.isOk()) {
      ++report.evictedPods;
      ME_LOG(kWarning) << "recovery: evicting pod uid " << pod.uid << ": "
                       << replanned.status().toString();
      if (callbacks_.evictPod) {
        callbacks_.evictPod(pod.uid, replanned.status());
      }
      continue;
    }

    bool ok = true;
    for (const LoadCommand& load : replanned->loads) {
      if (!callbacks_.loadModel) continue;
      Status s = callbacks_.loadModel(load);
      if (!s.isOk()) {
        // Surviving tRPi unreachable mid-recovery: treat like a failed
        // placement and evict rather than leave the pod half-wired.
        Status rollback = allocator_.release(replanned->allocation);
        if (!rollback.isOk()) {
          ME_LOG(kError) << "recovery rollback failed: "
                         << rollback.toString();
        }
        ++report.evictedPods;
        if (callbacks_.evictPod) callbacks_.evictPod(pod.uid, s);
        ok = false;
        break;
      }
    }
    if (!ok) continue;

    if (callbacks_.reconfigureLb) {
      callbacks_.reconfigureLb(
          pod.uid, ExtendedScheduler::lbConfigFromAllocation(
                       replanned->allocation));
    }
    reclamation_.retrack(pod.uid, replanned->allocation);
    ++report.recoveredPods;
    if (replanned->allocation.shares.size() != pod.allocation.shares.size()) {
      ++report.reshapedPods;
    }
  }
  return report;
}

}  // namespace microedge
