#pragma once

// TPU load balancing service (§5.3): per-pod component, seeded by the
// extended scheduler with the workload-partitioning weights, that fans the
// pod's successive Invoke requests out to TPU Service instances.
//
// K3s's default Service load balancer cannot pin requests to *specific*
// TPUs, which the partitioning scheme requires — hence this bespoke LBS.
// Default spread is smooth WRR (WFQ-like); the burst variant exists for the
// ablation bench.
//
// Health masking: each target carries a small circuit breaker. Consecutive
// routing failures (dead service, rejected invoke, frame timeout) trip the
// target into kMasked; routeHealthyIndex() skips masked targets until their
// mask window elapses, then lets exactly the frames that re-pick it probe
// the target half-open (kProbing). A successful probe restores kHealthy; a
// failed probe re-masks with doubled (capped) backoff. This keeps frames
// flowing through a pod's surviving shares during the detection window —
// before failure recovery rewrites the weights — without any per-frame
// allocation (health state is a flat vector aligned with the weights).

#include <cstdint>
#include <vector>

#include "core/extended_scheduler.hpp"
#include "dataplane/wrr.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace microedge {

enum class LbSpread { kSmooth, kBurst };

// Per-target circuit-breaker tuning. Defaults favour fast convergence in
// simulation: one good probe restores a target.
struct LbHealthConfig {
  // Consecutive failures that trip a healthy target into kMasked.
  std::uint32_t failureThreshold = 3;
  // Base mask window; multiplied by the per-target backoff multiplier.
  SimDuration maskDuration = milliseconds(500);
  // Consecutive probe successes needed to restore a masked target.
  std::uint32_t probeSuccesses = 1;
  // Backoff multiplier cap for repeated failed probes (window <=
  // maskDuration * maxBackoffMultiplier).
  std::uint32_t maxBackoffMultiplier = 4;
};

enum class TargetHealth : std::uint8_t { kHealthy, kMasked, kProbing };

class LbService {
 public:
  // routeHealthyIndex() result when every target is masked or absent.
  static constexpr std::size_t kNoTarget = static_cast<std::size_t>(-1);

  explicit LbService(LbSpread spread = LbSpread::kSmooth) : spread_(spread) {}

  // Installs the weights computed at admission (milli-units per TPU, each
  // target named by its TpuId handle) as given: the WRR routes by index and
  // the client resolves the handle. Resets routing counters AND health
  // state: a weight push from recovery names live targets, so they start
  // healthy.
  Status configure(const LbConfig& config);
  bool configured() const { return configured_; }

  void setHealthConfig(const LbHealthConfig& config) { health_ = config; }

  // Routes the next request; returns the index of the target in
  // config().weights. Per-frame hot path.
  // Precondition: configured().
  std::size_t routeIndex();
  // Health-aware routing: repeatedly draws from the WRR, skipping targets
  // whose mask window has not elapsed; a target whose window elapsed is
  // moved to kProbing and returned (half-open probe). Returns kNoTarget
  // when every target is masked. Precondition: configured().
  std::size_t routeHealthyIndex(SimTime now);

  // Health feedback from the client. Out-of-range indices (stale after a
  // reconfigure) are ignored.
  void recordSuccess(std::size_t index);
  void recordFailure(std::size_t index, SimTime now);

  TargetHealth targetHealth(std::size_t index) const;
  std::size_t maskedCount() const;
  // Total healthy->masked transitions since configure() (telemetry).
  std::uint64_t maskEvents() const { return maskEvents_; }

  std::uint64_t routedCount() const { return routed_; }
  // Requests routed to `tpu` since configure(); 0 if it is not a target.
  std::uint64_t routedCountTo(TpuId tpu) const;
  const LbConfig& config() const { return lbConfig_; }

 private:
  struct TargetState {
    TargetHealth state = TargetHealth::kHealthy;
    std::uint32_t consecutiveFailures = 0;
    std::uint32_t probeSuccesses = 0;
    std::uint32_t backoffMultiplier = 1;
    SimTime retryAt{};  // mask window end (valid while kMasked)
  };

  void trip(TargetState& target, SimTime now);
  // Next raw pick from the configured spread's WRR.
  std::size_t rawPick();

  LbSpread spread_;
  SmoothWrr smooth_;
  BurstWrr burst_;
  LbConfig lbConfig_;
  LbHealthConfig health_;
  bool configured_ = false;
  std::uint64_t routed_ = 0;
  std::uint64_t maskEvents_ = 0;
  // Aligned with lbConfig_.weights (the WRR preserves target order).
  std::vector<std::uint64_t> perTarget_;
  std::vector<TargetState> targetState_;
};

}  // namespace microedge
