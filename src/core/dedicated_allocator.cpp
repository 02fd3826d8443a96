#include "core/dedicated_allocator.hpp"

#include "util/strings.hpp"

namespace microedge {

StatusOr<AdmitResult> DedicatedAllocator::admit(std::uint64_t podUid,
                                                const std::string& modelName,
                                                TpuUnit units) {
  auto model = registry_.find(modelName);
  if (!model.isOk()) {
    ++rejected_;
    return model.status();
  }
  if (!units.isPositive()) {
    ++rejected_;
    return invalidArgument("dedicated baseline: non-positive TPU units");
  }
  // Integral TPU count: 0.35 -> 1 TPU, 1.2 -> 2 TPUs.
  auto needed = static_cast<std::size_t>((units.milli() + 999) / 1000);

  // First-Fit over fully-idle TPUs: the scan yields the TPUs with a whole
  // unit free, in pool order.
  std::vector<TpuState*> free;
  for (std::size_t index : pool_.scan(PackingStrategy::kFirstFit,
                                      TpuUnit::full())) {
    TpuState& tpu = pool_.tpus()[index];
    if (tpu.liveModelCount() != 0) continue;
    free.push_back(&tpu);
    if (free.size() == needed) break;
  }
  if (free.size() < needed) {
    ++rejected_;
    return resourceExhausted(
        strCat("dedicated baseline: need ", needed, " free TPU(s), have ",
               free.size()));
  }

  AdmitResult result;
  result.allocation.podUid = podUid;
  result.allocation.model = modelName;
  // Frames alternate evenly across the dedicated TPUs.
  TpuUnit perTpu = TpuUnit::fromMilli(
      (units.milli() + static_cast<std::int64_t>(needed) - 1) /
      static_cast<std::int64_t>(needed));
  for (TpuState* tpu : free) {
    // The whole TPU is taken regardless of the duty cycle actually used.
    tpu->addAllocation(model->id, TpuUnit::full());
    result.allocation.shares.push_back(TpuShare{tpu->tpuId(), perTpu});
    result.loads.push_back(LoadCommand{tpu->id(), {modelName}, {}});
  }
  ++admitted_;
  return result;
}

Status DedicatedAllocator::release(const Allocation& allocation) {
  Status first = Status::ok();
  const ModelId model = lookupModel(allocation.model);
  for (const TpuShare& share : allocation.shares) {
    TpuState* tpu = pool_.find(share.tpu);
    if (tpu == nullptr) continue;
    Status s = tpu->removeAllocation(model, TpuUnit::full());
    if (s.isOk()) tpu->purgeDeadModels();
    if (!s.isOk() && first.isOk()) first = s;
  }
  return first;
}

}  // namespace microedge
