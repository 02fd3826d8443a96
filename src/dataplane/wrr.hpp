#pragma once

// Weighted round-robin schedulers for the LB Service (§5.3).
//
// The paper forwards requests "using Weighted Round Robin (WRR) with Weight
// Fair Queuing (WFQ) spread": targets are interleaved so that a 2:1 weight
// ratio produces A B A A B A ... rather than A A B (smooth WRR, the
// algorithm nginx uses, which matches WFQ's virtual-finish-time spread for
// equal-size requests). The naive burst variant is kept for the ablation
// bench: bursty dispatch into a serial device inflates queueing-delay tails
// even when long-run proportions are identical.
//
// The pick steps are free functions over any array of targets with
// `weight` and `credit` members, so the stand-alone SmoothWrr / BurstWrr
// below and LbService, which keeps each target's WRR state beside its
// breaker state in one array, run the same code.

#include <cstdint>
#include <vector>

#include "core/admission.hpp"
#include "util/status.hpp"

namespace microedge {

// One WRR target: its TPU, its weight divided by the target set's gcd, and
// smooth WRR's running credit.
struct WrrTarget {
  TpuId tpu{};
  std::uint32_t weight = 0;
  std::int64_t credit = 0;
};

// Checks a target set (non-empty, no zero weight) and returns the gcd of
// its weights. Dividing by it keeps the proportions while shortening the
// schedule period (weights arrive as milli-units, e.g. 400:200 -> 2:1).
StatusOr<std::uint32_t> wrrWeightGcd(const std::vector<LbWeight>& weights);

// Smooth WRR: each pick adds weight_i to credit_i, selects the first
// maximum, then subtracts the total weight from the winner. Deterministic;
// over any window of totalWeight picks each target is chosen exactly
// weight_i times, and picks of the same target are spread maximally apart.
// A pick is one scan over the targets (about 2.6 ns per target); an LB
// service routes over one target, or two or three for a partitioned pod.
template <typename Target>
std::size_t smoothWrrPick(Target* targets, std::size_t count,
                          std::uint64_t totalWeight) {
  std::size_t best = 0;
  for (std::size_t i = 0; i < count; ++i) {
    targets[i].credit += static_cast<std::int64_t>(targets[i].weight);
    if (targets[i].credit > targets[best].credit) best = i;
  }
  targets[best].credit -= static_cast<std::int64_t>(totalWeight);
  return best;
}

// Burst WRR: weight_i consecutive picks of target i before moving on.
// `cursor` is the current target and `emitted` the picks it has had.
template <typename Target>
std::size_t burstWrrPick(const Target* targets, std::size_t count,
                         std::uint32_t& cursor, std::uint32_t& emitted) {
  if (emitted >= targets[cursor].weight) {
    emitted = 0;
    cursor = static_cast<std::uint32_t>((cursor + 1) % count);
  }
  ++emitted;
  return cursor;
}

class SmoothWrr {
 public:
  // Replaces the target set. Zero-weight targets are rejected.
  Status setTargets(const std::vector<LbWeight>& weights);

  bool empty() const { return targets_.empty(); }
  std::uint64_t totalWeight() const { return totalWeight_; }
  // The targets in configured order, weights divided by their gcd.
  const std::vector<WrrTarget>& targets() const { return targets_; }

  // Index of the next target into targets(). Precondition: !empty().
  std::size_t pickIndex();

 private:
  std::vector<WrrTarget> targets_;
  std::uint64_t totalWeight_ = 0;
};

// Naive burst WRR: same long-run proportions, worst-case burstiness.
class BurstWrr {
 public:
  Status setTargets(const std::vector<LbWeight>& weights);

  bool empty() const { return targets_.empty(); }
  const std::vector<WrrTarget>& targets() const { return targets_; }
  std::size_t pickIndex();

 private:
  std::vector<WrrTarget> targets_;
  std::uint32_t cursor_ = 0;
  std::uint32_t emitted_ = 0;
};

}  // namespace microedge
