#include "dataplane/lb_service.hpp"

#include <algorithm>
#include <cassert>

namespace microedge {

Status LbService::configure(const LbConfig& config) {
  Status s = spread_ == LbSpread::kSmooth ? smooth_.setTargets(config.weights)
                                          : burst_.setTargets(config.weights);
  if (!s.isOk()) return s;
  lbConfig_ = config;
  configured_ = true;
  routed_ = 0;
  maskEvents_ = 0;
  perTarget_.assign(lbConfig_.weights.size(), 0);
  targetState_.assign(lbConfig_.weights.size(), TargetState{});
  return Status::ok();
}

std::size_t LbService::rawPick() {
  return spread_ == LbSpread::kSmooth ? smooth_.pickIndex()
                                      : burst_.pickIndex();
}

std::size_t LbService::routeIndex() {
  assert(configured_ && "LbService::route before configure");
  std::size_t index = rawPick();
  ++routed_;
  ++perTarget_[index];
  return index;
}

std::size_t LbService::routeHealthyIndex(SimTime now) {
  assert(configured_ && "LbService::route before configure");
  // Each draw advances the WRR even when the target is skipped; with every
  // target healthy this is exactly one draw, so the smooth interleaving (and
  // the per-target counters the partitioning tests assert) is unchanged.
  const std::size_t n = lbConfig_.weights.size();
  for (std::size_t draw = 0; draw < n; ++draw) {
    std::size_t index = rawPick();
    TargetState& t = targetState_[index];
    if (t.state == TargetHealth::kMasked) {
      if (now < t.retryAt) continue;  // window still open: skip this target
      t.state = TargetHealth::kProbing;  // half-open: this frame is the probe
      t.probeSuccesses = 0;
    }
    ++routed_;
    ++perTarget_[index];
    return index;
  }
  return kNoTarget;
}

void LbService::recordSuccess(std::size_t index) {
  if (index >= targetState_.size()) return;
  TargetState& t = targetState_[index];
  t.consecutiveFailures = 0;
  if (t.state == TargetHealth::kProbing &&
      ++t.probeSuccesses >= health_.probeSuccesses) {
    t.state = TargetHealth::kHealthy;
    t.backoffMultiplier = 1;
  }
}

void LbService::recordFailure(std::size_t index, SimTime now) {
  if (index >= targetState_.size()) return;
  TargetState& t = targetState_[index];
  t.probeSuccesses = 0;
  switch (t.state) {
    case TargetHealth::kProbing:
      // Failed probe: re-mask with doubled (capped) backoff.
      t.backoffMultiplier =
          std::min(t.backoffMultiplier * 2, health_.maxBackoffMultiplier);
      trip(t, now);
      break;
    case TargetHealth::kHealthy:
      if (++t.consecutiveFailures >= health_.failureThreshold) trip(t, now);
      break;
    case TargetHealth::kMasked:
      break;  // late failure from a frame routed before the trip
  }
}

void LbService::trip(TargetState& target, SimTime now) {
  target.state = TargetHealth::kMasked;
  target.consecutiveFailures = 0;
  target.retryAt = now + target.backoffMultiplier * health_.maskDuration;
  ++maskEvents_;  // every transition into masked, including failed probes
}

TargetHealth LbService::targetHealth(std::size_t index) const {
  return index < targetState_.size() ? targetState_[index].state
                                     : TargetHealth::kHealthy;
}

std::size_t LbService::maskedCount() const {
  std::size_t n = 0;
  for (const TargetState& t : targetState_) {
    if (t.state == TargetHealth::kMasked) ++n;
  }
  return n;
}

std::uint64_t LbService::routedCountTo(TpuId tpu) const {
  for (std::size_t i = 0; i < lbConfig_.weights.size(); ++i) {
    if (lbConfig_.weights[i].tpu == tpu) return perTarget_[i];
  }
  return 0;
}

}  // namespace microedge
