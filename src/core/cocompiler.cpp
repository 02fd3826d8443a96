#include "core/cocompiler.hpp"

#include "util/strings.hpp"

namespace microedge {

SimDuration CoCompiler::estimateLatency(double totalParamMb) const {
  return config_.baseLatency +
         SimDuration{static_cast<std::int64_t>(
             static_cast<double>(config_.perMbLatency.count()) * totalParamMb)};
}

StatusOr<LoadCommand> CoCompiler::planAdd(const TpuState& tpu,
                                          const ModelInfo& model) const {
  LoadCommand load;
  load.tpuId = tpu.id();
  double total = 0.0;
  bool present = false;
  // zero-reference models are excluded from the composite
  for (ModelId id : tpu.liveModelIds()) {
    const ModelInfo& live = registry_.at(id);
    load.composite.push_back(live.name);
    total += live.paramSizeMb;
    present = present || id == model.id;
  }
  if (!present) {
    load.composite.push_back(model.name);
    total += model.paramSizeMb;
  }
  if (total > tpu.paramCapacityMb()) {
    return resourceExhausted(
        strCat("co-compile on ", tpu.id(), ": composite of ",
               fmtDouble(total, 2), " MB exceeds ",
               fmtDouble(tpu.paramCapacityMb(), 2), " MB parameter budget"));
  }
  load.compileLatency = estimateLatency(total);
  return load;
}

LoadCommand CoCompiler::planFresh(const TpuState& tpu,
                                  const ModelInfo& model) const {
  return LoadCommand{tpu.id(), {model.name},
                     estimateLatency(model.paramSizeMb)};
}

}  // namespace microedge
