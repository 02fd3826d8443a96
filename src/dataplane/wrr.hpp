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
#include <string>
#include <vector>

#include "util/status.hpp"

namespace microedge {

struct WrrTarget {
  std::string id;
  std::uint32_t weight = 0;
};

// Smooth WRR: each pick adds weight_i to current_i, selects the max, then
// subtracts the total weight from the winner. Deterministic; over any window
// of totalWeight picks each target is chosen exactly weight_i times, and
// picks of the same target are spread maximally apart.
//
// Cycle cache: the credit state returns to its initial value after exactly
// totalWeight() picks (each target wins weight_i times, so every credit
// gains weight_i * W and loses weight_i * W), so the pick sequence is
// periodic with period W. On the first pick the schedule's one period is
// materialized in a single pass of W argmax steps over the weight vector
// and every subsequent pick is a table read: O(1) per frame instead of an
// O(n) credit scan. The cached sequence is the original incremental
// argmax's by construction (the cache is *built by* that argmax).
// Degenerate weight sets whose reduced period exceeds kMaxCyclePeriod skip
// the cache and keep the O(n)-per-pick scan.
class SmoothWrr {
 public:
  // Reduced periods above this fall back to the per-pick argmax scan
  // (weights are milli-units, so a pathological pair like 349:651 has
  // period 1000; the cap bounds cache memory per LB service).
  static constexpr std::uint64_t kMaxCyclePeriod = 4096;

  // Replaces the target set. Zero-weight targets are rejected.
  Status setTargets(std::vector<WrrTarget> targets);

  bool empty() const { return targets_.empty(); }
  std::uint64_t totalWeight() const { return totalWeight_; }
  const std::vector<WrrTarget>& targets() const { return targets_; }

  // Index of the next target into targets(). Precondition: !empty().
  // The per-frame hot path: no string is touched.
  std::size_t pickIndex();
  // Next target id. Precondition: !empty().
  const std::string& pick() { return targets_[pickIndex()].id; }

  std::uint64_t pickCount(const std::string& id) const;

  // Cycle length when the periodic cache is active, 0 when the target set
  // fell back to the linear scan (telemetry / tests).
  std::uint64_t cyclePeriod() const { return cycle_.size(); }

 private:
  // One step of the original incremental argmax (cache builder + fallback).
  std::size_t stepLinear();
  void buildCycleIfNeeded();

  std::vector<WrrTarget> targets_;
  std::vector<std::int64_t> current_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t totalWeight_ = 0;
  // One period of winner indices (empty: fallback or not built yet).
  std::vector<std::uint32_t> cycle_;
  std::uint64_t phase_ = 0;  // picks since setTargets, mod totalWeight_
  bool cycleBuilt_ = false;
};

// Naive burst WRR: emits weight_i consecutive picks of target i before
// moving on. Same long-run proportions, worst-case burstiness.
class BurstWrr {
 public:
  Status setTargets(std::vector<WrrTarget> targets);

  bool empty() const { return targets_.empty(); }
  const std::vector<WrrTarget>& targets() const { return targets_; }
  std::size_t pickIndex();
  const std::string& pick() { return targets_[pickIndex()].id; }

 private:
  std::vector<WrrTarget> targets_;
  std::size_t index_ = 0;
  std::uint32_t emitted_ = 0;
};

}  // namespace microedge
