#include "core/reclamation.hpp"

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace microedge {

void Reclamation::track(std::uint64_t podUid, Allocation allocation) {
  tracked_[podUid] = std::move(allocation);
}

const Allocation* Reclamation::allocationOf(std::uint64_t podUid) const {
  auto it = tracked_.find(podUid);
  return it == tracked_.end() ? nullptr : &it->second;
}

std::size_t Reclamation::pollOnce(
    const std::function<bool(std::uint64_t)>& isAlive) {
  std::size_t count = 0;
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    if (isAlive(it->first)) {
      ++it;
      continue;
    }
    Status released = admission_.release(it->second);
    if (!released.isOk()) {
      ME_LOG(kError) << "reclamation of pod uid " << it->first
                     << " failed: " << released.toString();
    }
    it = tracked_.erase(it);
    ++count;
    ++reclaimed_;
  }
  return count;
}

Status Reclamation::releaseNow(std::uint64_t podUid) {
  auto it = tracked_.find(podUid);
  if (it == tracked_.end()) {
    return notFound(strCat("pod uid ", podUid, " not tracked"));
  }
  Status released = admission_.release(it->second);
  tracked_.erase(it);
  ++reclaimed_;
  return released;
}

}  // namespace microedge
