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
// All hot state is keyed by interned dense ids (util/intern.hpp): model
// reference counts are a small dense vector of ModelId entries instead of a
// map<string, int>, and the pool maintains incremental packing indexes
// (core/packing_index.hpp) that are updated in place whenever a TPU's load
// changes, so the admission scan is O(log M) instead of O(M). Names enter
// only where a TPU joins or leaves the pool (addTpu, removeTpu).

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/packing_index.hpp"
#include "core/tpu_units.hpp"
#include "models/registry.hpp"
#include "util/intern.hpp"
#include "util/status.hpp"

namespace microedge {

class TpuPool;

enum class PackingStrategy { kFirstFit, kNextFit, kBestFit, kWorstFit };

std::string_view toString(PackingStrategy strategy);

class TpuState {
 public:
  TpuState(std::string id, double paramCapacityMb)
      : id_(std::move(id)), sym_(internTpu(id_)),
        paramCapacityMb_(paramCapacityMb) {}

  // Copies detach from any owning pool (the copy is standalone bookkeeping;
  // TpuPool re-binds its elements after copying the whole vector). Moves
  // keep the binding so vector reallocation inside the owning pool stays
  // index-maintaining.
  TpuState(const TpuState& other);
  TpuState& operator=(const TpuState& other);
  TpuState(TpuState&&) noexcept = default;
  TpuState& operator=(TpuState&&) noexcept = default;

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
  std::vector<std::string> liveModels() const;
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
  friend class TpuPool;

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
  void bind(TpuPool* owner, std::uint32_t pos) {
    owner_ = owner;
    pos_ = pos;
  }
  void notifyResidual();

  std::string id_;
  TpuId sym_;
  double paramCapacityMb_;
  TpuUnit load_;
  std::vector<Ref> refs_;
  std::uint32_t liveCount_ = 0;
  // Owning pool (nullptr for standalone states); load changes are pushed to
  // the pool's packing indexes through this binding.
  TpuPool* owner_ = nullptr;
  std::uint32_t pos_ = 0;
};

// Ordered collection of TPU states; order is the First-Fit scan order.
//
// The pool maintains, incrementally on every load change:
//   - a max-residual segment tree (First/Next-Fit: first TPU at position
//     >= from with residual >= u, O(log M));
//   - residual-bucketed free lists (Best/Worst-Fit candidate order without
//     any per-admission sort);
//   - an interned-id -> position map (find() is O(1)).
class TpuPool {
 public:
  static constexpr std::uint32_t npos = 0xffffffffu;

  TpuPool() = default;
  TpuPool(const TpuPool& other);
  TpuPool& operator=(const TpuPool& other);
  TpuPool(TpuPool&& other) noexcept;
  TpuPool& operator=(TpuPool&& other) noexcept;

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

  // First position >= from whose residual is >= minResidual, or npos.
  // O(log M) via the segment tree.
  std::uint32_t firstWithResidualAtLeast(TpuUnit minResidual,
                                         std::uint32_t from = 0) const;

  // Lazy enumeration of candidate positions in a packing strategy's scan
  // order, restricted to residual >= minResidual:
  //  - FirstFit: pool order.
  //  - NextFit:  from `nextFitCursor` onward only (earlier bins are "closed").
  //  - BestFit:  most-loaded first (tightest remaining gap), ties by index.
  //  - WorstFit: least-loaded first, ties by index.
  // tests/packing_scan_order.hpp materializes the same order naively as the
  // differential reference. The cursor is invalidated by any pool/load
  // mutation EXCEPT committing to the most recently returned position (the
  // admission pattern: place and stop).
  class ScanCursor {
   public:
    // Next candidate position, or TpuPool::npos when exhausted.
    std::uint32_t next();

   private:
    friend class TpuPool;
    ScanCursor(const TpuPool* pool, PackingStrategy strategy,
               std::int64_t minResidual, std::uint32_t from);

    const TpuPool* pool_;
    PackingStrategy strategy_;
    std::int64_t minResidual_;
    std::uint32_t from_ = 0;  // first/next-fit resume position
    int bucket_ = -1;         // best/worst-fit current bucket
    std::set<std::uint32_t>::const_iterator it_;
    bool inBucket_ = false;
  };

  ScanCursor scan(PackingStrategy strategy, TpuUnit minResidual,
                  std::size_t nextFitCursor = 0) const;

  // Test hook: verifies the incremental indexes against the actual states.
  bool indexConsistent() const;

 private:
  friend class TpuState;

  static std::int64_t clampedResidual(const TpuState& tpu);
  void onResidualChanged(std::uint32_t pos);
  // Re-binds every state and rebuilds all indexes (used after copy/move,
  // removal, or anything else that renumbers positions).
  void rebuildIndex();

  std::vector<TpuState> tpus_;
  std::vector<std::int64_t> residual_;  // cached clamped residual per pos
  ResidualSegTree seg_;
  LoadBuckets buckets_;
  std::unordered_map<std::uint32_t, std::uint32_t> posBySym_;
};

}  // namespace microedge
