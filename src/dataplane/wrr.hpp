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

#include <cstdint>
#include <vector>

#include "core/extended_scheduler.hpp"
#include "util/status.hpp"

namespace microedge {

// Smooth WRR: each pick adds weight_i to current_i, selects the max, then
// subtracts the total weight from the winner. Deterministic; over any window
// of totalWeight picks each target is chosen exactly weight_i times, and
// picks of the same target are spread maximally apart. A pick is one scan
// over the targets (about 2.6 ns per target); an LB service routes over one
// target, or two or three for a partitioned pod.
class SmoothWrr {
 public:
  // Replaces the target set. Zero-weight targets are rejected.
  Status setTargets(std::vector<LbWeight> targets);

  bool empty() const { return targets_.empty(); }
  std::uint64_t totalWeight() const { return totalWeight_; }
  // The targets in configured order, weights divided by their gcd.
  const std::vector<LbWeight>& targets() const { return targets_; }

  // Index of the next target into targets(). Precondition: !empty().
  std::size_t pickIndex();

 private:
  std::vector<LbWeight> targets_;
  std::vector<std::int64_t> current_;
  std::uint64_t totalWeight_ = 0;
};

// Naive burst WRR: emits weight_i consecutive picks of target i before
// moving on. Same long-run proportions, worst-case burstiness.
class BurstWrr {
 public:
  Status setTargets(std::vector<LbWeight> targets);

  bool empty() const { return targets_.empty(); }
  const std::vector<LbWeight>& targets() const { return targets_; }
  std::size_t pickIndex();

 private:
  std::vector<LbWeight> targets_;
  std::size_t index_ = 0;
  std::uint32_t emitted_ = 0;
};

}  // namespace microedge
