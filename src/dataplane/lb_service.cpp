#include "dataplane/lb_service.hpp"

#include <algorithm>
#include <cassert>

namespace microedge {

Status LbService::configure(const LbConfig& config) {
  auto gcd = wrrWeightGcd(config.weights);
  if (!gcd.isOk()) return gcd.status();
  targets_.assign(config.weights.size(), Target{});
  std::uint64_t totalWeight = 0;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    targets_[i].tpu = config.weights[i].tpu;
    targets_[i].weight = config.weights[i].weight / *gcd;
    totalWeight += targets_[i].weight;
  }
  if (spread_ == LbSpread::kSmooth) {
    schedule_.totalWeight = totalWeight;
  } else {
    schedule_.burst = {0, 0};
  }
  maskEvents_ = 0;
  return Status::ok();
}

std::size_t LbService::rawPick() {
  return spread_ == LbSpread::kSmooth
             ? smoothWrrPick(targets_.data(), targets_.size(),
                             schedule_.totalWeight)
             : burstWrrPick(targets_.data(), targets_.size(),
                            schedule_.burst.cursor, schedule_.burst.emitted);
}

std::size_t LbService::routeHealthyIndex(SimTime now) {
  assert(configured() && "LbService::route before configure");
  // Each draw advances the WRR even when the target is skipped; with every
  // target healthy this is exactly one draw, so the smooth interleaving (and
  // the per-target counters the partitioning tests assert) is unchanged.
  const std::size_t n = targets_.size();
  for (std::size_t draw = 0; draw < n; ++draw) {
    std::size_t index = rawPick();
    Target& t = targets_[index];
    if (t.state == TargetHealth::kMasked) {
      if (now < t.retryAt) continue;  // window still open: skip this target
      t.state = TargetHealth::kProbing;  // half-open: this frame is the probe
    }
    ++t.routed;
    return index;
  }
  return kNoTarget;
}

void LbService::recordSuccess(std::size_t index) {
  if (index >= targets_.size()) return;
  Target& t = targets_[index];
  t.consecutiveFailures = 0;
  if (t.state == TargetHealth::kProbing) {
    t.state = TargetHealth::kHealthy;
    t.backoffMultiplier = 1;
  }
}

void LbService::recordFailure(std::size_t index, SimTime now) {
  if (index >= targets_.size()) return;
  Target& t = targets_[index];
  switch (t.state) {
    case TargetHealth::kProbing:
      // Failed probe: re-mask with doubled (capped) backoff.
      t.backoffMultiplier =
          std::min(t.backoffMultiplier * 2, kMaxBackoffMultiplier);
      trip(t, now);
      break;
    case TargetHealth::kHealthy:
      if (++t.consecutiveFailures >= kFailureThreshold) trip(t, now);
      break;
    case TargetHealth::kMasked:
      break;  // late failure from a frame routed before the trip
  }
}

void LbService::trip(Target& target, SimTime now) {
  target.state = TargetHealth::kMasked;
  target.consecutiveFailures = 0;
  target.retryAt = now + target.backoffMultiplier * kMaskDuration;
  ++maskEvents_;  // every transition into masked, including failed probes
}

TargetHealth LbService::targetHealth(std::size_t index) const {
  return index < targets_.size() ? targets_[index].state
                                 : TargetHealth::kHealthy;
}

std::size_t LbService::maskedCount() const {
  std::size_t n = 0;
  for (const Target& t : targets_) {
    if (t.state == TargetHealth::kMasked) ++n;
  }
  return n;
}

std::uint64_t LbService::routedCount() const {
  std::uint64_t n = 0;
  for (const Target& t : targets_) n += t.routed;
  return n;
}

std::uint64_t LbService::routedCountTo(TpuId tpu) const {
  for (const Target& t : targets_) {
    if (t.tpu == tpu) return t.routed;
  }
  return 0;
}

}  // namespace microedge
