#include "core/extended_scheduler.hpp"

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace microedge {

ExtendedScheduler::ExtendedScheduler(TpuAllocator& admission,
                                     Reclamation& reclamation,
                                     Callbacks callbacks)
    : admission_(admission), reclamation_(reclamation),
      callbacks_(std::move(callbacks)) {}

LbConfig ExtendedScheduler::lbConfigFromAllocation(
    const Allocation& allocation) {
  LbConfig config;
  config.weights.reserve(allocation.shares.size());
  for (const TpuShare& share : allocation.shares) {
    config.weights.push_back(
        LbWeight{share.tpu, static_cast<std::uint32_t>(share.units.milli())});
  }
  return config;
}

StatusOr<std::string> ExtendedScheduler::schedule(
    const Pod& pod, const std::vector<std::string>& candidates) {
  if (candidates.empty()) {
    return resourceExhausted(
        strCat("pod ", pod.spec.name, ": empty candidate node list"));
  }
  if (!pod.spec.tpu.has_value()) {
    // Nothing for us to do; defer to the default scheduler's choice.
    return candidates.front();
  }

  const TpuRequest& request = *pod.spec.tpu;
  TpuUnit units = TpuUnit::fromDouble(request.tpuUnits);
  auto admitted = admission_.admit(pod.uid, request.model, units);
  if (!admitted.isOk()) return admitted.status();

  // Install composites on the data plane. A Load failure (e.g. the tRPi just
  // died) aborts the deployment and rolls back the units.
  for (const LoadCommand& load : admitted->loads) {
    if (!callbacks_.loadModel) continue;
    Status s = callbacks_.loadModel(load);
    if (!s.isOk()) {
      Status rollback = admission_.release(admitted->allocation);
      if (!rollback.isOk()) {
        ME_LOG(kError) << "rollback after Load failure also failed: "
                       << rollback.toString();
      }
      return Status(s.code(), strCat("pod ", pod.spec.name, ": Load on ",
                                     load.tpuId, " failed: ", s.message()));
    }
  }

  LbConfig config = lbConfigFromAllocation(admitted->allocation);
  lbConfigs_[pod.uid] = config;
  if (callbacks_.configureLb) callbacks_.configureLb(pod.uid, config);
  reclamation_.track(pod.uid, admitted->allocation);

  ME_LOG(kInfo) << "pod " << pod.spec.name << " admitted: "
                << admitted->allocation.shares.size() << " TPU share(s), "
                << units.toString() << " units total";
  return candidates.front();
}

const LbConfig* ExtendedScheduler::lbConfig(std::uint64_t podUid) const {
  auto it = lbConfigs_.find(podUid);
  return it == lbConfigs_.end() ? nullptr : &it->second;
}

}  // namespace microedge
