#pragma once

// Control-plane bookkeeping for TPU resources.
//
// The extended scheduler tracks, per TPU Service instance: the cumulative
// TPU units allocated (CurrentLoad in Algorithm 1), the set of resident
// models with per-model reference counts, and the parameter-memory budget.
// Model reclamation is *lazy* (§4.2): releasing a pod only decrements
// reference counts; zero-reference models remain resident (and consume no
// accountable memory) until the next co-compile excludes them.
//
// Model reference counts are keyed by interned dense ids (util/intern.hpp):
// a small dense vector of ModelId entries instead of a map<string, int>.
// Names enter only where a TPU joins or leaves the pool (addTpu, removeTpu).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/tpu_units.hpp"
#include "models/registry.hpp"
#include "util/intern.hpp"
#include "util/status.hpp"

namespace microedge {

// Online bin-packing scan orders (§4.2).
//
// MicroEdge extends First-Fit (asymptotic approximation ratio 1.7). The
// alternatives the paper cites — Next-Fit, Best-Fit, Worst-Fit — are
// implemented for the ablation bench: they all plug into the same admission
// algorithm by changing the order in which Algorithm 1 scans the TPU pool
// (and, for Next-Fit, which TPUs it may revisit). TpuPool::scan defines the
// orders.
enum class PackingStrategy { kFirstFit, kNextFit, kBestFit, kWorstFit };

std::string_view toString(PackingStrategy strategy);

class TpuState {
 public:
  TpuState(std::string id, double paramCapacityMb)
      : id_(std::move(id)), sym_(internTpu(id_)),
        paramCapacityMb_(paramCapacityMb) {}

  const std::string& id() const { return id_; }
  TpuId tpuId() const { return sym_; }
  double paramCapacityMb() const { return paramCapacityMb_; }

  TpuUnit currentLoad() const { return load_; }
  TpuUnit freeUnits() const { return TpuUnit::full() - load_; }

  // A model counts as "in the TPU" if it has at least one live reference.
  bool hasModel(ModelId model) const;
  // Memory consumed by live-referenced models only (lazy reclamation: dead
  // models will be excluded by the next co-compile, so their space is
  // considered reclaimable at admission time).
  double usedParamMb(const ModelRegistry& registry) const;
  double freeParamMb(const ModelRegistry& registry) const {
    return paramCapacityMb_ - usedParamMb(registry);
  }
  // True if the model is already present or its parameters fit in the
  // reclaimable-free memory (the Model Size Rule test, Algorithm 1 line 4).
  bool modelFits(const ModelRegistry& registry, const ModelInfo& model) const;

  // Number of distinct live-referenced models. O(1).
  std::size_t liveModelCount() const { return liveCount_; }
  // Live-referenced models, in first-load order (co-compile priority).
  std::vector<ModelId> liveModelIds() const;
  // All resident names including zero-reference leftovers (diagnostics).
  std::vector<std::string> residentOrder() const;

  int refCount(ModelId model) const;

  // Adds an allocation: bumps load and the model's reference count. The
  // caller (AdmissionController) is responsible for having checked the two
  // rules first; this asserts only basic sanity.
  void addAllocation(ModelId model, TpuUnit units);
  // Reverses addAllocation. Load may not go negative.
  Status removeAllocation(ModelId model, TpuUnit units);

  // Applies a new co-compiled composite: zero-reference models are dropped
  // from the resident order (the lazy reclamation point).
  void purgeDeadModels();

 private:
  // Reference counts in first-load order; zero-count entries linger until
  // purgeDeadModels() (lazy reclamation), so this vector IS the resident
  // order. Live-model sets are tiny (bounded by the 6.9 MB parameter
  // budget), so a dense scan beats any map.
  struct Ref {
    ModelId model;
    int count = 0;
  };

  const Ref* findRef(ModelId model) const;
  Ref* findRef(ModelId model);

  std::string id_;
  TpuId sym_;
  double paramCapacityMb_;
  TpuUnit load_;
  std::vector<Ref> refs_;
  std::uint32_t liveCount_ = 0;
};

// Ordered collection of TPU states; order is the First-Fit scan order.
// Admission walks it linearly, as Algorithm 1 does: the pools the system
// packs hold at most a few dozen TPUs.
class TpuPool {
 public:
  Status addTpu(const std::string& id, double paramCapacityMb);
  Status removeTpu(const std::string& id);

  std::size_t size() const { return tpus_.size(); }
  TpuState* find(TpuId id);
  const TpuState* find(TpuId id) const;
  std::vector<TpuState>& tpus() { return tpus_; }
  const std::vector<TpuState>& tpus() const { return tpus_; }

  // Σ load across the pool, for utilization accounting.
  TpuUnit totalLoad() const;
  // Number of TPUs with non-zero load (the bin-packing objective K).
  std::size_t usedTpuCount() const;

  // Candidate positions in a packing strategy's scan order, keeping only
  // TPUs with at least `minResidual` free units:
  //  - FirstFit: pool order.
  //  - NextFit:  from `nextFitCursor` onward only (earlier bins are "closed").
  //  - BestFit:  most-loaded first (tightest remaining gap), ties by index.
  //  - WorstFit: least-loaded first, ties by index.
  std::vector<std::size_t> scan(PackingStrategy strategy, TpuUnit minResidual,
                                std::size_t nextFitCursor = 0) const;

 private:
  std::vector<TpuState> tpus_;
};

}  // namespace microedge
