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

}  // namespace microedge
