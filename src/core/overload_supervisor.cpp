#include "core/overload_supervisor.hpp"

namespace microedge {

bool RepackSupervisor::onWindow() {
  ++windowsObserved_;
  const Sample cur = sample_();
  const std::uint64_t dGood = cur.good - prev_.good;
  const std::uint64_t dTotal = cur.total - prev_.total;
  prev_ = cur;

  if (cooldown_ > 0) {
    --cooldown_;
    streak_ = 0;
    return false;
  }
  // A quiet window (no terminal frames) is neutral: it neither builds nor
  // resets the streak — overload evidence should not be erased by one idle
  // sampling boundary.
  if (dTotal == 0) return false;

  lastAttainment_ = static_cast<double>(dGood) / static_cast<double>(dTotal);
  if (lastAttainment_ >= kAttainmentThreshold) {
    streak_ = 0;
    return false;
  }
  ++pressuredWindows_;
  if (++streak_ < kSustainWindows) return false;

  streak_ = 0;
  cooldown_ = kCooldownWindows;
  ++repacksTriggered_;
  lastReport_ = repack_();
  return true;
}

}  // namespace microedge
