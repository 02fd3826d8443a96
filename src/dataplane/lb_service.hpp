#pragma once

// TPU load balancing service (§5.3): per-pod component, seeded by the
// control plane with the workload-partitioning weights, that fans the
// pod's successive Invoke requests out to TPU Service instances.
//
// K3s's default Service load balancer cannot pin requests to *specific*
// TPUs, which the partitioning scheme requires — hence this bespoke LBS.
// Default spread is smooth WRR (WFQ-like); the burst variant exists for the
// ablation bench.
//
// Health masking: each target carries a small circuit breaker.
// kFailureThreshold consecutive routing failures (dead service, rejected
// invoke, frame timeout) trip the target into kMasked; routeHealthyIndex()
// skips masked targets until their mask window elapses, then lets exactly
// the frames that re-pick it probe the target half-open (kProbing). One
// successful probe restores kHealthy; a failed probe re-masks with doubled
// (capped) backoff. This keeps frames flowing through a pod's surviving
// shares during the detection window — before failure recovery rewrites
// the weights — without any per-frame allocation.
//
// Layout: every camera stream's client embeds one LbService, so at city
// scale its bytes are per-stream memory. Each target is kept once, in one
// array: its TPU, reduced weight and WRR credit, routed count and breaker
// state. Beside it sit only the active spread's schedule (smooth: the
// total weight; burst: the cursor and its run) and the spread; the breaker
// tuning is constants.

#include <cstdint>
#include <vector>

#include "core/admission.hpp"
#include "dataplane/wrr.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace microedge {

enum class LbSpread : std::uint8_t { kSmooth, kBurst };

enum class TargetHealth : std::uint8_t { kHealthy, kMasked, kProbing };

class LbService {
 public:
  // routeHealthyIndex() result when every target is masked or absent.
  static constexpr std::size_t kNoTarget = static_cast<std::size_t>(-1);
  // Circuit-breaker tuning, chosen for fast convergence in simulation.
  // Consecutive failures that trip a healthy target into kMasked.
  static constexpr std::uint32_t kFailureThreshold = 3;
  // Base mask window; multiplied by the per-target backoff multiplier.
  static constexpr SimDuration kMaskDuration = milliseconds(500);
  // Backoff multiplier cap for repeated failed probes (window <=
  // kMaskDuration * kMaxBackoffMultiplier).
  static constexpr std::uint32_t kMaxBackoffMultiplier = 4;

  explicit LbService(LbSpread spread = LbSpread::kSmooth) : spread_(spread) {}

  // Installs the weights computed at admission (milli-units per TPU, each
  // target named by its TpuId handle), in the given order: the WRR routes
  // by index and the client resolves the handle. Resets routing counters
  // AND health state: a weight push from recovery names live targets, so
  // they start healthy.
  Status configure(const LbConfig& config);
  bool configured() const { return !targets_.empty(); }

  // Health-aware routing: repeatedly draws from the WRR, skipping targets
  // whose mask window has not elapsed; a target whose window elapsed is
  // moved to kProbing and returned (half-open probe). Returns the target's
  // index, or kNoTarget when every target is masked. Per-frame hot path.
  // Precondition: configured().
  std::size_t routeHealthyIndex(SimTime now);

  // Health feedback from the client. Out-of-range indices (stale after a
  // reconfigure) are ignored.
  void recordSuccess(std::size_t index);
  void recordFailure(std::size_t index, SimTime now);

  // The configured targets, in configured order.
  std::size_t targetCount() const { return targets_.size(); }
  TpuId target(std::size_t index) const { return targets_[index].tpu; }

  TargetHealth targetHealth(std::size_t index) const;
  std::size_t maskedCount() const;
  // Total healthy->masked transitions since configure() (telemetry).
  std::uint64_t maskEvents() const { return maskEvents_; }

  // Requests routed since configure(), in total and to `tpu` (0 if it is
  // not a target).
  std::uint64_t routedCount() const;
  std::uint64_t routedCountTo(TpuId tpu) const;

 private:
  // One target: WRR state (tpu, weight, credit), then routing and breaker
  // state.
  struct Target : WrrTarget {
    std::uint64_t routed = 0;
    SimTime retryAt{};  // mask window end (valid while kMasked)
    std::uint32_t consecutiveFailures = 0;
    std::uint32_t backoffMultiplier = 1;
    TargetHealth state = TargetHealth::kHealthy;
  };

  void trip(Target& target, SimTime now);
  // Next raw pick from the configured spread's WRR.
  std::size_t rawPick();

  std::vector<Target> targets_;
  std::uint64_t maskEvents_ = 0;
  // The active spread's schedule, set by configure(): smooth WRR's total
  // weight, or burst WRR's cursor and the picks it has emitted there.
  union Schedule {
    std::uint64_t totalWeight;
    struct {
      std::uint32_t cursor;
      std::uint32_t emitted;
    } burst;
  };
  Schedule schedule_{};
  LbSpread spread_;
};

}  // namespace microedge
