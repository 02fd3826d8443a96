#pragma once

// Co-compile planner.
//
// Coral's edgetpu_compiler can compile several models into one composite so
// they are simultaneously resident in TPU memory (space sharing, §5.1).
// The control plane only needs the resulting Load: which models form the
// new composite for a TPU (checked against the parameter budget), and how
// long the (off-critical-path, separate-process) compilation takes — the
// last feeds the Fig. 7a variance analysis.

#include <string>
#include <vector>

#include "core/tpu_state.hpp"
#include "models/registry.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace microedge {

// Data-plane side effect of an admission: install this composite on the TPU
// (executed via the TPU Service Load primitive; compile runs off-path).
struct LoadCommand {
  std::string tpuId;
  // New composite, in priority order (existing residents first, the new
  // model appended last — it streams parameters if anything must overflow).
  std::vector<std::string> composite;
  // Estimated separate-process compile time (not on the admission critical
  // path; the container launch proceeds in parallel, §6.4.1).
  SimDuration compileLatency{};
};

struct CoCompilerConfig {
  // Calibrated against edgetpu_compiler wall times on a workstation-class
  // remote server: a fixed startup plus a per-MB recompilation cost.
  SimDuration baseLatency = milliseconds(1200);
  SimDuration perMbLatency = milliseconds(280);
};

class CoCompiler {
 public:
  CoCompiler(const ModelRegistry& registry, CoCompilerConfig config = {})
      : registry_(registry), config_(config) {}

  // The Load adding `model` to the TPU's resident set. Dead (zero-reference)
  // models are excluded from the composite — this is where lazy reclamation
  // takes effect. Fails if the result would exceed the parameter budget.
  StatusOr<LoadCommand> planAdd(const TpuState& tpu,
                                const ModelInfo& model) const;

  // The Load of a fresh composite (initial Load of a single model).
  LoadCommand planFresh(const TpuState& tpu, const ModelInfo& model) const;

  // Compile time of a composite holding `totalParamMb` of parameters.
  SimDuration estimateLatency(double totalParamMb) const;

 private:
  const ModelRegistry& registry_;
  CoCompilerConfig config_;
};

}  // namespace microedge
