#include "testbed/control_plane.hpp"

#include <cassert>

#include "core/dedicated_allocator.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace microedge {

std::string_view toString(SchedulingMode mode) {
  switch (mode) {
    case SchedulingMode::kBaselineDedicated:
      return "baseline (dedicated TPUs)";
    case SchedulingMode::kMicroEdgeNoWp:
      return "MicroEdge w/o W.P.";
    case SchedulingMode::kMicroEdgeWp:
      return "MicroEdge w/ W.P.";
  }
  return "unknown";
}

std::unique_ptr<TpuAllocator> makeAllocator(const ControlPlaneConfig& config,
                                            TpuPool& pool,
                                            const ModelRegistry& registry) {
  if (config.mode == SchedulingMode::kBaselineDedicated) {
    return std::make_unique<DedicatedAllocator>(pool, registry);
  }
  AdmissionConfig admission;
  admission.enableWorkloadPartitioning =
      config.mode == SchedulingMode::kMicroEdgeWp;
  admission.enableCoCompile = config.enableCoCompile;
  admission.strategy = config.strategy;
  return std::make_unique<AdmissionController>(pool, registry, admission);
}

namespace {

// Replans race with hung-but-alive services: their Loads go through the
// data plane's retry policy.
std::function<Status(const LoadCommand&)> replanLoad(DataPlane& dataPlane) {
  return [&dataPlane](const LoadCommand& command) {
    return dataPlane.executeLoadOrRetry(command);
  };
}

}  // namespace

ControlPlane::ControlPlane(DataPlane& dataPlane,
                           const ModelRegistry& registry,
                           ControlPlaneConfig config, Hooks hooks)
    : dataPlane_(dataPlane),
      allocator_(makeAllocator(config, pool_, registry)),
      admission_(dynamic_cast<AdmissionController*>(allocator_.get())),
      reclamation_(*allocator_),
      recovery_(*allocator_, reclamation_,
                {replanLoad(dataPlane), hooks.pushLb, hooks.evict}) {
  if (admission_ != nullptr) {
    defragmenter_.emplace(*admission_, reclamation_,
                          Defragmenter::Callbacks{replanLoad(dataPlane),
                                                  std::move(hooks.pushLb)});
  }
}

void ControlPlane::addTpu(const TpuDevice& tpu) {
  Status added = pool_.addTpu(tpu.id(), tpu.config().paramMemoryMb);
  assert(added.isOk());
  (void)added;
}

StatusOr<std::string> ControlPlane::schedule(
    const Pod& pod, const std::vector<std::string>& candidates) {
  if (candidates.empty()) {
    return resourceExhausted(
        strCat("pod ", pod.spec.name, ": empty candidate node list"));
  }
  if (!pod.spec.tpu.has_value()) {
    // Nothing for us to do; defer to the default scheduler's choice.
    return candidates.front();
  }
  const TpuUnit units = TpuUnit::fromDouble(pod.spec.tpu->tpuUnits);
  auto admitted = admit(pod.uid, pod.spec.tpu->model, units);
  if (!admitted.isOk()) return admitted.status();
  ME_LOG(kInfo) << "pod " << pod.spec.name << " admitted: "
                << admitted->weights.size() << " TPU share(s), "
                << units.toString() << " units total";
  return candidates.front();
}

StatusOr<LbConfig> ControlPlane::admit(std::uint64_t uid,
                                       const std::string& model,
                                       TpuUnit units) {
  auto admitted = allocator_->admit(uid, model, units);
  if (!admitted.isOk()) return admitted.status();
  // A Load failure (the tRPi just died, or its service hangs) refuses the
  // pod and returns its units.
  for (const LoadCommand& load : admitted->loads) {
    Status s = dataPlane_.executeLoad(load);
    if (!s.isOk()) {
      Status rollback = allocator_->release(admitted->allocation);
      if (!rollback.isOk()) {
        ME_LOG(kError) << "rollback after Load failure also failed: "
                       << rollback.toString();
      }
      return Status(s.code(), strCat("pod uid ", uid, ": Load on ",
                                     load.tpuId, " failed: ", s.message()));
    }
  }
  LbConfig weights = lbConfigFromAllocation(admitted->allocation);
  reclamation_.track(uid, std::move(admitted)->allocation);
  return weights;
}

FailureRecovery::Report ControlPlane::failTpu(const std::string& tpuId) {
  if (!pool_.removeTpu(tpuId).isOk()) return {};
  return recovery_.onTpuFailure(tpuId);
}

Defragmenter::Report ControlPlane::defragment() {
  if (!defragmenter_) return {};
  return defragmenter_->replanAll();
}

}  // namespace microedge
