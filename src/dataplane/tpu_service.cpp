#include "dataplane/tpu_service.hpp"

#include "util/strings.hpp"

namespace microedge {

Status TpuService::load(const LoadCommand& command) {
  if (hung_) {
    return unavailable(strCat("TPU service ", tpuId(), " not answering"));
  }
  ++loads_;
  return device_.loadModels(command.composite);
}

Status TpuService::invoke(ModelId model, TpuDevice::InvokeCallback done) {
  if (hung_) {
    return unavailable(strCat("TPU service ", tpuId(), " not answering"));
  }
  Status s = device_.invoke(model, std::move(done));
  if (s.isOk()) ++invokes_;
  return s;
}

Status TpuService::invoke(const std::string& model,
                          TpuDevice::InvokeCallback done) {
  ModelId id = lookupModel(model);
  if (!id.valid()) {
    return notFound(strCat("invoke: unknown model ", model));
  }
  return invoke(id, std::move(done));
}

}  // namespace microedge
