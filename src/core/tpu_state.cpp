#include "core/tpu_state.hpp"

#include <algorithm>
#include <cassert>

#include "util/strings.hpp"

namespace microedge {

std::string_view toString(PackingStrategy strategy) {
  switch (strategy) {
    case PackingStrategy::kFirstFit:
      return "first-fit";
    case PackingStrategy::kNextFit:
      return "next-fit";
    case PackingStrategy::kBestFit:
      return "best-fit";
    case PackingStrategy::kWorstFit:
      return "worst-fit";
  }
  return "unknown";
}

const TpuState::Ref* TpuState::findRef(ModelId model) const {
  for (const Ref& ref : refs_) {
    if (ref.model == model) return &ref;
  }
  return nullptr;
}

TpuState::Ref* TpuState::findRef(ModelId model) {
  return const_cast<Ref*>(std::as_const(*this).findRef(model));
}

bool TpuState::hasModel(ModelId model) const {
  const Ref* ref = findRef(model);
  return ref != nullptr && ref->count > 0;
}

double TpuState::usedParamMb(const ModelRegistry& registry) const {
  double used = 0.0;
  for (const Ref& ref : refs_) {
    if (ref.count > 0) used += registry.at(ref.model).paramSizeMb;
  }
  return used;
}

bool TpuState::modelFits(const ModelRegistry& registry,
                         const ModelInfo& model) const {
  ModelId id = model.id.valid() ? model.id : lookupModel(model.name);
  if (hasModel(id)) return true;
  return model.paramSizeMb <= freeParamMb(registry);
}

std::vector<ModelId> TpuState::liveModelIds() const {
  std::vector<ModelId> out;
  out.reserve(liveCount_);
  for (const Ref& ref : refs_) {
    if (ref.count > 0) out.push_back(ref.model);
  }
  return out;
}

std::vector<std::string> TpuState::residentOrder() const {
  std::vector<std::string> out;
  out.reserve(refs_.size());
  for (const Ref& ref : refs_) out.push_back(modelName(ref.model));
  return out;
}

int TpuState::refCount(ModelId model) const {
  const Ref* ref = findRef(model);
  return ref == nullptr ? 0 : ref->count;
}

void TpuState::addAllocation(ModelId model, TpuUnit units) {
  assert(units.isPositive());
  assert(model.valid());
  load_ += units;
  Ref* ref = findRef(model);
  if (ref == nullptr) {
    refs_.push_back(Ref{model, 1});
    ++liveCount_;
  } else {
    if (ref->count == 0) ++liveCount_;
    ++ref->count;
  }
}

Status TpuState::removeAllocation(ModelId model, TpuUnit units) {
  Ref* ref = findRef(model);
  if (ref == nullptr || ref->count <= 0) {
    return failedPrecondition(strCat("TPU ", id_, ": no live allocation of model ",
                                     model.valid() ? modelName(model) : "?"));
  }
  if (units > load_) {
    return failedPrecondition(
        strCat("TPU ", id_, ": releasing ", units.toString(),
               " units exceeds load ", load_.toString()));
  }
  load_ -= units;
  if (--ref->count == 0) --liveCount_;
  // Lazy reclamation: the model stays in refs_ until purgeDeadModels().
  return Status::ok();
}

void TpuState::purgeDeadModels() {
  refs_.erase(std::remove_if(refs_.begin(), refs_.end(),
                             [](const Ref& ref) { return ref.count <= 0; }),
              refs_.end());
}

// ---------------------------------------------------------------------------
// TpuPool

Status TpuPool::addTpu(const std::string& id, double paramCapacityMb) {
  if (find(lookupTpu(id)) != nullptr) {
    return alreadyExists(strCat("TPU ", id, " already in pool"));
  }
  if (paramCapacityMb <= 0.0) {
    return invalidArgument(strCat("TPU ", id, ": non-positive capacity"));
  }
  tpus_.emplace_back(id, paramCapacityMb);
  return Status::ok();
}

Status TpuPool::removeTpu(const std::string& id) {
  auto it = std::find_if(tpus_.begin(), tpus_.end(),
                         [&](const TpuState& t) { return t.id() == id; });
  if (it == tpus_.end()) return notFound(strCat("TPU ", id, " not in pool"));
  tpus_.erase(it);
  return Status::ok();
}

TpuState* TpuPool::find(TpuId id) {
  if (!id.valid()) return nullptr;
  auto it = std::find_if(tpus_.begin(), tpus_.end(),
                         [&](const TpuState& t) { return t.tpuId() == id; });
  return it == tpus_.end() ? nullptr : &*it;
}

const TpuState* TpuPool::find(TpuId id) const {
  return const_cast<TpuPool*>(this)->find(id);
}

TpuUnit TpuPool::totalLoad() const {
  TpuUnit total;
  for (const auto& tpu : tpus_) total += tpu.currentLoad();
  return total;
}

std::size_t TpuPool::usedTpuCount() const {
  std::size_t n = 0;
  for (const auto& tpu : tpus_) {
    if (tpu.currentLoad().isPositive()) ++n;
  }
  return n;
}

std::vector<std::size_t> TpuPool::scan(PackingStrategy strategy,
                                       TpuUnit minResidual,
                                       std::size_t nextFitCursor) const {
  const std::size_t from = strategy == PackingStrategy::kNextFit
                               ? std::min(nextFitCursor, tpus_.size())
                               : 0;
  std::vector<std::size_t> order;
  for (std::size_t pos = from; pos < tpus_.size(); ++pos) {
    if (tpus_[pos].freeUnits() >= minResidual) order.push_back(pos);
  }
  auto load = [this](std::size_t pos) { return tpus_[pos].currentLoad(); };
  if (strategy == PackingStrategy::kBestFit) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return load(a) > load(b);
                     });
  } else if (strategy == PackingStrategy::kWorstFit) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return load(a) < load(b);
                     });
  }
  return order;
}

}  // namespace microedge
