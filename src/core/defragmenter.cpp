#include "core/defragmenter.hpp"

#include <algorithm>
#include <vector>

#include "util/logging.hpp"

namespace microedge {

namespace {

bool sameShares(const Allocation& a, const Allocation& b) {
  if (a.shares.size() != b.shares.size()) return false;
  for (std::size_t i = 0; i < a.shares.size(); ++i) {
    if (a.shares[i].tpu != b.shares[i].tpu ||
        a.shares[i].units != b.shares[i].units) {
      return false;
    }
  }
  return true;
}

std::size_t totalShares(const std::map<std::uint64_t, Allocation>& tracked) {
  std::size_t n = 0;
  for (const auto& [uid, allocation] : tracked) n += allocation.shares.size();
  return n;
}

}  // namespace

Status Defragmenter::pushPlacement(std::uint64_t uid,
                                   const AdmitResult& result) {
  for (const LoadCommand& load : result.loads) {
    if (!callbacks_.loadModel) continue;
    Status s = callbacks_.loadModel(load);
    if (!s.isOk()) {
      // Data-plane Load failures are logged but do not abort the replan —
      // the control-plane placement is consistent and the Load can retry.
      ME_LOG(kWarning) << "defrag: Load on " << load.tpuId
                       << " failed: " << s.toString();
    }
  }
  if (callbacks_.reconfigureLb) {
    callbacks_.reconfigureLb(uid, lbConfigFromAllocation(result.allocation));
  }
  reclamation_.retrack(uid, result.allocation);
  return Status::ok();
}

Defragmenter::Report Defragmenter::replanAll() {
  Report report;
  const auto before = reclamation_.trackedAllocations();  // copy
  report.sharesBefore = totalShares(before);
  report.usedTpusBefore = admission_.pool().usedTpuCount();
  if (before.empty()) {
    report.applied = true;
    report.sharesAfter = report.sharesBefore;
    report.usedTpusAfter = report.usedTpusBefore;
    return report;
  }

  // Transactional: snapshot the pool, restore on any placement failure.
  TpuPool snapshot = admission_.pool();

  std::vector<std::pair<std::uint64_t, Allocation>> pods(before.begin(),
                                                         before.end());
  for (const auto& [uid, allocation] : pods) {
    Status released = admission_.release(allocation);
    if (!released.isOk()) {
      ME_LOG(kError) << "defrag: release of pod uid " << uid
                     << " failed: " << released.toString();
    }
  }
  // First-Fit-Decreasing: hardest first.
  std::sort(pods.begin(), pods.end(),
            [](const auto& a, const auto& b) {
              return a.second.totalUnits() > b.second.totalUnits();
            });

  std::vector<std::pair<std::uint64_t, AdmitResult>> placements;
  for (const auto& [uid, allocation] : pods) {
    auto result =
        admission_.admit(uid, allocation.model, allocation.totalUnits());
    if (!result.isOk()) {
      // Should be rare (model-size constraints can bite); roll everything
      // back so the cluster is exactly as before.
      admission_.pool() = snapshot;
      ME_LOG(kWarning) << "defrag: replan infeasible for pod uid " << uid
                       << " (" << result.status().toString()
                       << "); rolled back";
      report.applied = false;
      report.sharesAfter = report.sharesBefore;
      report.usedTpusAfter = report.usedTpusBefore;
      return report;
    }
    placements.emplace_back(uid, std::move(result).value());
  }

  for (const auto& [uid, result] : placements) {
    if (!sameShares(before.at(uid), result.allocation)) {
      ++report.podsReplanned;
      Status s = pushPlacement(uid, result);
      (void)s;
    } else {
      reclamation_.retrack(uid, result.allocation);
    }
  }
  report.applied = true;
  report.sharesAfter = totalShares(reclamation_.trackedAllocations());
  report.usedTpusAfter = admission_.pool().usedTpuCount();
  return report;
}

}  // namespace microedge
