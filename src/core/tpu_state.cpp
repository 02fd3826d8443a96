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

TpuState::TpuState(const TpuState& other)
    : id_(other.id_), sym_(other.sym_),
      paramCapacityMb_(other.paramCapacityMb_), load_(other.load_),
      refs_(other.refs_), liveCount_(other.liveCount_) {}

TpuState& TpuState::operator=(const TpuState& other) {
  if (this != &other) {
    id_ = other.id_;
    sym_ = other.sym_;
    paramCapacityMb_ = other.paramCapacityMb_;
    load_ = other.load_;
    refs_ = other.refs_;
    liveCount_ = other.liveCount_;
    owner_ = nullptr;
    pos_ = 0;
  }
  return *this;
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

std::vector<std::string> TpuState::liveModels() const {
  std::vector<std::string> out;
  out.reserve(liveCount_);
  for (const Ref& ref : refs_) {
    if (ref.count > 0) out.push_back(modelName(ref.model));
  }
  return out;
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
  notifyResidual();
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
  notifyResidual();
  return Status::ok();
}

void TpuState::purgeDeadModels() {
  refs_.erase(std::remove_if(refs_.begin(), refs_.end(),
                             [](const Ref& ref) { return ref.count <= 0; }),
              refs_.end());
}

void TpuState::notifyResidual() {
  if (owner_ != nullptr) owner_->onResidualChanged(pos_);
}

// ---------------------------------------------------------------------------
// TpuPool

TpuPool::TpuPool(const TpuPool& other) : tpus_(other.tpus_) { rebuildIndex(); }

TpuPool& TpuPool::operator=(const TpuPool& other) {
  if (this != &other) {
    tpus_ = other.tpus_;
    rebuildIndex();
  }
  return *this;
}

TpuPool::TpuPool(TpuPool&& other) noexcept : tpus_(std::move(other.tpus_)) {
  rebuildIndex();
  other.tpus_.clear();
  other.rebuildIndex();
}

TpuPool& TpuPool::operator=(TpuPool&& other) noexcept {
  if (this != &other) {
    tpus_ = std::move(other.tpus_);
    rebuildIndex();
    other.tpus_.clear();
    other.rebuildIndex();
  }
  return *this;
}

std::int64_t TpuPool::clampedResidual(const TpuState& tpu) {
  std::int64_t res = tpu.freeUnits().milli();
  if (res < 0) return 0;
  if (res > LoadBuckets::kMaxResidual) return LoadBuckets::kMaxResidual;
  return res;
}

Status TpuPool::addTpu(const std::string& id, double paramCapacityMb) {
  if (find(lookupTpu(id)) != nullptr) {
    return alreadyExists(strCat("TPU ", id, " already in pool"));
  }
  if (paramCapacityMb <= 0.0) {
    return invalidArgument(strCat("TPU ", id, ": non-positive capacity"));
  }
  auto pos = static_cast<std::uint32_t>(tpus_.size());
  tpus_.emplace_back(id, paramCapacityMb);
  tpus_.back().bind(this, pos);
  posBySym_.emplace(tpus_.back().tpuId().value, pos);
  std::int64_t res = clampedResidual(tpus_.back());
  residual_.push_back(res);
  if (residual_.size() > seg_.size()) {
    // Amortized doubling: assign() rounds capacity to the next power of two.
    seg_.assign(residual_);
  } else {
    seg_.update(pos, res);
  }
  buckets_.insert(res, pos);
  return Status::ok();
}

Status TpuPool::removeTpu(const std::string& id) {
  auto it = std::find_if(tpus_.begin(), tpus_.end(),
                         [&](const TpuState& t) { return t.id() == id; });
  if (it == tpus_.end()) return notFound(strCat("TPU ", id, " not in pool"));
  tpus_.erase(it);
  rebuildIndex();
  return Status::ok();
}

TpuState* TpuPool::find(TpuId id) {
  if (!id.valid()) return nullptr;
  auto it = posBySym_.find(id.value);
  return it == posBySym_.end() ? nullptr : &tpus_[it->second];
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

std::uint32_t TpuPool::firstWithResidualAtLeast(TpuUnit minResidual,
                                                std::uint32_t from) const {
  std::uint32_t pos = seg_.firstAtLeast(from, minResidual.milli());
  return pos == ResidualSegTree::kNpos ? npos : pos;
}

void TpuPool::onResidualChanged(std::uint32_t pos) {
  assert(pos < tpus_.size());
  std::int64_t now = clampedResidual(tpus_[pos]);
  std::int64_t& cached = residual_[pos];
  if (now == cached) return;
  buckets_.erase(cached, pos);
  buckets_.insert(now, pos);
  cached = now;
  seg_.update(pos, now);
}

void TpuPool::rebuildIndex() {
  residual_.resize(tpus_.size());
  posBySym_.clear();
  posBySym_.reserve(tpus_.size());
  buckets_.clear();
  for (std::uint32_t pos = 0; pos < tpus_.size(); ++pos) {
    tpus_[pos].bind(this, pos);
    posBySym_.emplace(tpus_[pos].tpuId().value, pos);
    residual_[pos] = clampedResidual(tpus_[pos]);
    buckets_.insert(residual_[pos], pos);
  }
  seg_.assign(residual_);
}

bool TpuPool::indexConsistent() const {
  if (residual_.size() != tpus_.size()) return false;
  if (posBySym_.size() != tpus_.size()) return false;
  for (std::uint32_t pos = 0; pos < tpus_.size(); ++pos) {
    std::int64_t res = clampedResidual(tpus_[pos]);
    if (residual_[pos] != res) return false;
    // Scanning from pos itself must report pos (its own residual matches).
    if (seg_.firstAtLeast(pos, res) != pos) return false;
    if (buckets_.at(static_cast<int>(res)).count(pos) == 0) return false;
    auto it = posBySym_.find(tpus_[pos].tpuId().value);
    if (it == posBySym_.end() || it->second != pos) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// ScanCursor

TpuPool::ScanCursor::ScanCursor(const TpuPool* pool, PackingStrategy strategy,
                                std::int64_t minResidual, std::uint32_t from)
    : pool_(pool), strategy_(strategy), minResidual_(minResidual) {
  switch (strategy_) {
    case PackingStrategy::kFirstFit:
      from_ = 0;
      break;
    case PackingStrategy::kNextFit:
      from_ = from;
      break;
    case PackingStrategy::kBestFit:
      // Tightest feasible gap first: smallest residual >= minResidual.
      bucket_ = static_cast<int>(std::min<std::int64_t>(
          minResidual, LoadBuckets::kMaxResidual));
      break;
    case PackingStrategy::kWorstFit:
      bucket_ = LoadBuckets::kMaxResidual;
      break;
  }
}

std::uint32_t TpuPool::ScanCursor::next() {
  switch (strategy_) {
    case PackingStrategy::kFirstFit:
    case PackingStrategy::kNextFit: {
      std::uint32_t pos = pool_->seg_.firstAtLeast(from_, minResidual_);
      if (pos == ResidualSegTree::kNpos) return npos;
      from_ = pos + 1;
      return pos;
    }
    case PackingStrategy::kBestFit: {
      // A request larger than one whole TPU can never fit a single bucket.
      if (minResidual_ > LoadBuckets::kMaxResidual) return npos;
      if (inBucket_) {
        if (++it_ != pool_->buckets_.at(bucket_).end()) return *it_;
        inBucket_ = false;
        ++bucket_;
      }
      bucket_ = pool_->buckets_.nextNonEmpty(bucket_);
      if (bucket_ < 0) return npos;
      it_ = pool_->buckets_.at(bucket_).begin();
      inBucket_ = true;
      return *it_;
    }
    case PackingStrategy::kWorstFit: {
      if (minResidual_ > LoadBuckets::kMaxResidual) return npos;
      if (inBucket_) {
        if (++it_ != pool_->buckets_.at(bucket_).end()) return *it_;
        inBucket_ = false;
        --bucket_;
      }
      if (bucket_ < 0) return npos;
      bucket_ = pool_->buckets_.prevNonEmpty(bucket_);
      if (bucket_ < 0 || bucket_ < minResidual_) return npos;
      it_ = pool_->buckets_.at(bucket_).begin();
      inBucket_ = true;
      return *it_;
    }
  }
  return npos;
}

TpuPool::ScanCursor TpuPool::scan(PackingStrategy strategy, TpuUnit minResidual,
                                  std::size_t nextFitCursor) const {
  std::int64_t min = std::max<std::int64_t>(minResidual.milli(), 0);
  auto from = static_cast<std::uint32_t>(
      std::min<std::size_t>(nextFitCursor, tpus_.size()));
  return ScanCursor(this, strategy, min, from);
}

}  // namespace microedge
