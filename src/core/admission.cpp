#include "core/admission.hpp"

#include <cassert>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace microedge {

LbConfig lbConfigFromAllocation(const Allocation& allocation) {
  LbConfig config;
  config.weights.reserve(allocation.shares.size());
  for (const TpuShare& share : allocation.shares) {
    config.weights.push_back(
        LbWeight{share.tpu, static_cast<std::uint32_t>(share.units.milli())});
  }
  return config;
}

AdmissionController::AdmissionController(TpuPool& pool,
                                         const ModelRegistry& registry,
                                         AdmissionConfig config)
    : pool_(pool), registry_(registry), coCompiler_(registry),
      config_(config) {}

bool AdmissionController::modelAllowedOn(const TpuState& tpu,
                                         const ModelInfo& model) const {
  if (tpu.hasModel(model.id)) return true;
  if (model.paramSizeMb > tpu.paramCapacityMb()) {
    // Oversized model: only schedulable alone (partial caching streams the
    // overflow; colocating anything else would evict its cached portion).
    return tpu.liveModelCount() == 0;
  }
  if (!config_.enableCoCompile) {
    // Without co-compiling only one distinct model can be resident; a second
    // tenant with a different model would pay a full swap per request.
    return tpu.liveModelCount() == 0;
  }
  return tpu.modelFits(registry_, model);
}

StatusOr<LoadCommand> AdmissionController::makeLoad(TpuState& tpu,
                                                    const ModelInfo& model) {
  // The co-compile excludes zero-reference models: lazy reclamation point.
  tpu.purgeDeadModels();
  // A TPU with no live models gets a fresh composite. planAdd would plan
  // the same one, but it rejects a lone model over the parameter budget,
  // which modelAllowedOn admits onto an empty TPU (partial caching).
  if (config_.enableCoCompile && tpu.liveModelCount() > 0) {
    return coCompiler_.planAdd(tpu, model);
  }
  return coCompiler_.planFresh(tpu, model);
}

std::optional<AdmitResult> AdmissionController::placeSingle(
    std::size_t index, std::uint64_t podUid, const ModelInfo& model,
    TpuUnit units) {
  TpuState& tpu = pool_.tpus()[index];
  AdmitResult result;
  if (!tpu.hasModel(model.id)) {
    auto load = makeLoad(tpu, model);
    if (!load.isOk()) return std::nullopt;  // purge race; try next TPU
    result.loads.push_back(std::move(load).value());
  }
  tpu.addAllocation(model.id, units);
  result.allocation =
      Allocation{podUid, model.name, {TpuShare{tpu.tpuId(), units}}};
  nextFitCursor_ = index;
  return result;
}

StatusOr<AdmitResult> AdmissionController::admitSingle(std::uint64_t podUid,
                                                       const ModelInfo& model,
                                                       TpuUnit units) {
  // The scan yields only TPUs whose residual satisfies the TPU Units Rule.
  for (std::size_t index :
       pool_.scan(config_.strategy, units, nextFitCursor_)) {
    if (!modelAllowedOn(pool_.tpus()[index], model)) continue;
    if (auto result = placeSingle(index, podUid, model, units)) {
      return std::move(*result);
    }
  }
  return resourceExhausted(
      strCat("no single TPU can host ", units.toString(), " units of ",
             model.name));
}

StatusOr<AdmitResult> AdmissionController::admitPartitioned(
    std::uint64_t podUid, const ModelInfo& model, TpuUnit units) {
  // Phase 1: plan shares without mutating state (all-or-nothing admission).
  struct PlannedShare {
    std::size_t index;
    TpuUnit units;
  };
  std::vector<PlannedShare> planned;
  TpuUnit remaining = units;
  // Any TPU with at least one free milli-unit is a candidate.
  for (std::size_t index : pool_.scan(config_.strategy, TpuUnit::fromMilli(1),
                                      nextFitCursor_)) {
    const TpuState& tpu = pool_.tpus()[index];
    if (!modelAllowedOn(tpu, model)) continue;
    const TpuUnit wp = TpuUnit::min(remaining, tpu.freeUnits());
    planned.push_back(PlannedShare{index, wp});
    remaining -= wp;
    if (remaining.isZero()) break;
  }
  if (remaining.isPositive()) {
    return resourceExhausted(
        strCat("workload partitioning cannot place ", units.toString(),
               " units of ", model.name, "; short by ", remaining.toString()));
  }

  // Phase 2: commit.
  AdmitResult result;
  result.allocation.podUid = podUid;
  result.allocation.model = model.name;
  for (const PlannedShare& share : planned) {
    TpuState& tpu = pool_.tpus()[share.index];
    if (!tpu.hasModel(model.id)) {
      auto load = makeLoad(tpu, model);
      // modelAllowedOn held in phase 1 and nothing changed since; a failure
      // here is a logic error, not a runtime condition.
      assert(load.isOk());
      if (load.isOk()) result.loads.push_back(std::move(load).value());
    }
    tpu.addAllocation(model.id, share.units);
    result.allocation.shares.push_back(TpuShare{tpu.tpuId(), share.units});
  }
  nextFitCursor_ = planned.back().index;
  return result;
}

StatusOr<AdmitResult> AdmissionController::admit(std::uint64_t podUid,
                                                 const std::string& modelName,
                                                 TpuUnit units) {
  const ModelInfo* model = registry_.findPtr(modelName);
  if (model == nullptr) {
    ++rejected_;
    return notFound(strCat("model ", modelName, " not registered"));
  }
  if (!units.isPositive()) {
    ++rejected_;
    return invalidArgument(
        strCat("pod requests non-positive TPU units for ", modelName));
  }
  if (!config_.enableWorkloadPartitioning && units > TpuUnit::full()) {
    ++rejected_;
    return resourceExhausted(
        strCat(modelName, " needs ", units.toString(),
               " units; > 1 TPU requires workload partitioning"));
  }

  auto single = admitSingle(podUid, *model, units);
  if (single.isOk()) {
    ++admitted_;
    return single;
  }
  if (!config_.enableWorkloadPartitioning) {
    ++rejected_;
    return single;
  }
  auto partitioned = admitPartitioned(podUid, *model, units);
  if (partitioned.isOk()) {
    ++admitted_;
    ++partitioned_;
    ME_LOG(kDebug) << "pod uid " << podUid << " partitioned across "
                   << partitioned->allocation.shares.size() << " TPUs";
  } else {
    ++rejected_;
  }
  return partitioned;
}

Status AdmissionController::release(const Allocation& allocation) {
  Status first = Status::ok();
  const ModelId model = lookupModel(allocation.model);
  for (const TpuShare& share : allocation.shares) {
    TpuState* tpu = pool_.find(share.tpu);
    if (tpu == nullptr) {
      // TPU left the pool (node failure) — its bookkeeping died with it.
      continue;
    }
    Status s = tpu->removeAllocation(model, share.units);
    if (!s.isOk() && first.isOk()) first = s;
  }
  return first;
}

}  // namespace microedge
