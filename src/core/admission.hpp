#pragma once

// Admission control (Algorithm 1).
//
// Given a pod's (model, TPU-units) request, assign TPU Service shares under
// the paper's two rules:
//
//   TPU Units Rule:  Σ units on a TPU ≤ 1 (no oversubscription — the TPU
//                    executes serially, so exceeding the duty-cycle budget
//                    means unbounded queue growth).
//   Model Size Rule: Σ parameter sizes of distinct live models on a TPU ≤
//                    6.9 MB (so co-compiling keeps every tenant resident and
//                    no request pays a swap).
//
// `AdmissionControl` places the whole request on one TPU (First-Fit).
// `AdmissionControlWithWorkloadPartitioning` (§4.3) relaxes x_ij to
// fractions: the request is split across TPUs, each share becoming an LBS
// weight; this removes internal fragmentation and admits models with
// units > 1. Rejection has no side effects (all-or-nothing commit).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cocompiler.hpp"
#include "core/tpu_state.hpp"
#include "core/tpu_units.hpp"
#include "models/registry.hpp"
#include "util/status.hpp"

namespace microedge {

struct AdmissionConfig {
  bool enableWorkloadPartitioning = true;
  bool enableCoCompile = true;
  PackingStrategy strategy = PackingStrategy::kFirstFit;
};

// One pod's share on one TPU Service instance.
struct TpuShare {
  TpuId tpu{};
  TpuUnit units;
};

struct Allocation {
  std::uint64_t podUid = 0;
  std::string model;
  std::vector<TpuShare> shares;

  TpuUnit totalUnits() const {
    TpuUnit total;
    for (const auto& s : shares) total += s.units;
    return total;
  }
  bool partitioned() const { return shares.size() > 1; }
};

// Data-plane side effect of an admission: install this composite on the TPU
// (executed via the TPU Service Load primitive; compile runs off-path).
struct LoadCommand {
  std::string tpuId;
  std::vector<std::string> composite;
  SimDuration compileLatency{};
};

struct AdmitResult {
  Allocation allocation;
  std::vector<LoadCommand> loads;
};

// One downstream TPU Service and its share of the pod's requests. Weights
// are integer milli-units, consumed directly by the smooth-WRR scheduler.
struct LbWeight {
  TpuId tpu{};
  std::uint32_t weight = 0;
};

struct LbConfig {
  std::vector<LbWeight> weights;
  bool empty() const { return weights.empty(); }
};

// A pod's LB weights are its allocation's shares (§3.1 step 4).
LbConfig lbConfigFromAllocation(const Allocation& allocation);

// Interface shared by MicroEdge's admission controller and the bare-metal
// dedicated-TPU baseline, so the scheduler/reclamation machinery and the
// experiment harness can swap strategies.
class TpuAllocator {
 public:
  virtual ~TpuAllocator() = default;
  virtual StatusOr<AdmitResult> admit(std::uint64_t podUid,
                                      const std::string& modelName,
                                      TpuUnit units) = 0;
  virtual Status release(const Allocation& allocation) = 0;
};

class AdmissionController : public TpuAllocator {
 public:
  AdmissionController(TpuPool& pool, const ModelRegistry& registry,
                      AdmissionConfig config = {});

  // Algorithm 1 entry point (with or without workload partitioning per the
  // config). On success the pool state is updated and the shares +
  // load commands are returned; on failure nothing changes.
  StatusOr<AdmitResult> admit(std::uint64_t podUid,
                              const std::string& modelName,
                              TpuUnit units) override;

  // Returns a pod's units to the pool; model references drop (lazily — the
  // models stay resident until a future co-compile purges them).
  Status release(const Allocation& allocation) override;

  const AdmissionConfig& config() const { return config_; }
  TpuPool& pool() { return pool_; }
  const TpuPool& pool() const { return pool_; }

  // Counters for reports.
  std::size_t admittedCount() const { return admitted_; }
  std::size_t rejectedCount() const { return rejected_; }
  std::size_t partitionedCount() const { return partitioned_; }

 private:
  // The Model Size Rule as a placement predicate (Algorithm 1 line 4 /
  // line 14), honouring the co-compile switch: without co-compiling a TPU
  // holds at most one distinct live model, because serving a second would
  // pay a full swap on (nearly) every request and blow the duty-cycle math.
  bool modelAllowedOn(const TpuState& tpu, const ModelInfo& model) const;

  // Builds the Load side effect for placing `model` on `tpu` and applies
  // lazy purge. No-op (empty optional) if the model is already live there.
  StatusOr<LoadCommand> makeLoad(TpuState& tpu, const ModelInfo& model);

  // Commits `units` of `model` onto the TPU at `index` (the caller has
  // checked capacity and the Model Size Rule). Returns nullopt if the
  // co-compile plan races with the purge (caller tries the next candidate).
  std::optional<AdmitResult> placeSingle(std::size_t index,
                                         std::uint64_t podUid,
                                         const ModelInfo& model,
                                         TpuUnit units);

  StatusOr<AdmitResult> admitSingle(std::uint64_t podUid,
                                    const ModelInfo& model, TpuUnit units);
  StatusOr<AdmitResult> admitPartitioned(std::uint64_t podUid,
                                         const ModelInfo& model,
                                         TpuUnit units);

  TpuPool& pool_;
  const ModelRegistry& registry_;
  CoCompiler coCompiler_;
  AdmissionConfig config_;
  std::size_t nextFitCursor_ = 0;
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t partitioned_ = 0;
};

}  // namespace microedge
