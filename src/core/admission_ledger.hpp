#pragma once

// Per-frame admission ledger (SLEDGE-style, DESIGN.md §14).
//
// Deployment-time admission (core/admission.hpp) bounds the *average* duty
// cycle a pod may place on each TPU; it says nothing about how many frames
// may be in flight at once, so under overload the data plane's only relief
// valve is shedding at the deadline. This ledger closes the gap with a
// per-target capacity counter in estimated-execution/deadline units:
//
//   estimate(frame) = inferenceEstimate / frameDeadline      (milli, >= 1)
//   capacity(target) = share units on that TPU * overcommit  (milli)
//
// A frame is charged against its routed target at accept and credited at
// its terminal outcome — whichever outcome that is (completed, timed out,
// shed, dropped on a crashed target, failed over and then lost...), so
//   Σ outstanding charges == Σ charges of in-flight frames
// holds by construction, and a drained client's ledger reads zero. A frame
// whose target has no headroom is rejected up front: no slab slot, no
// transport event, a stack-built breakdown with kAdmissionRejected.
//
// Progress rule: a target with zero outstanding charge always admits one
// frame, even when a single frame's estimate exceeds the share (a 0.07-unit
// share serving 75-milli frames must not starve). The bound is therefore
// "at most ceil(capacity/estimate) frames in flight per target, never
// fewer than one".
//
// Entries are append-only and keyed by dense TpuId: reconfigure() (an LB
// weight push from failure recovery or the defragmenter) zeroes every
// capacity, then finds-or-appends an entry per new weight — indices held by
// in-flight frames stay valid, and charges against targets that left the
// config drain through the same credit path (their entries linger with
// capacity 0 until empty). Everything is a flat vector scan over a pod's
// handful of targets: no allocation on the per-frame path.

#include <cstdint>
#include <vector>

#include "util/intern.hpp"

namespace microedge {

// Per-client tuning for the per-frame admission loop. Lives here (not in
// the client header) so control-plane code can speak the same type.
struct FrameAdmissionConfig {
  // Off by default: the ledger is never consulted and the data-plane path
  // is bit-identical to a build without it.
  bool enabled = false;
  // Headroom multiplier on each target's share capacity. < 1 admits less
  // than the deployment-time share (slack against queueing at the device);
  // > 1 tolerates transient bursts above it.
  double overcommit = 1.0;
};

class AdmissionLedger {
 public:
  static constexpr std::uint32_t kNoEntry = static_cast<std::uint32_t>(-1);

  // Installs the target set from LB weights (weight == share milli-units).
  // Charges outstanding against surviving targets are preserved; targets no
  // longer named keep their entry with capacity zero until drained.
  struct TargetCapacity {
    TpuId tpu{};
    std::uint32_t shareMilli = 0;
  };
  void reconfigure(const TargetCapacity* targets, std::size_t count,
                   double overcommit);

  // Entry index for a target; kNoEntry when the target was never configured
  // (defensive: routing only yields configured targets).
  std::uint32_t entryFor(TpuId tpu) const;

  // Charges `estimateMilli` against the entry if it has headroom (or holds
  // no outstanding charge — the progress rule). Returns false without side
  // effects when the target is saturated.
  bool tryCharge(std::uint32_t entry, std::uint32_t estimateMilli);

  // Returns a terminal frame's charge. Exactly one credit per charge is the
  // conservation invariant the chaos soak asserts. A credit larger than the
  // entry's outstanding charge, or a charge or credit to an unknown entry,
  // prints its context and aborts in every build.
  void credit(std::uint32_t entry, std::uint32_t estimateMilli);

  // --- Introspection (tests, metrics) ---------------------------------------
  std::int64_t chargedMilli() const;       // Σ outstanding across entries
  std::int64_t capacityMilli() const;      // Σ capacities
  std::uint64_t acceptedCount() const { return accepted_; }
  std::uint64_t rejectedCount() const { return rejected_; }
  std::uint64_t creditedCount() const { return credited_; }
  std::size_t entryCount() const { return entries_.size(); }
  std::int64_t entryCharged(std::uint32_t entry) const {
    return entries_[entry].chargedMilli;
  }
  std::int64_t entryCapacity(std::uint32_t entry) const {
    return entries_[entry].capacityMilli;
  }

 private:
  struct Entry {
    TpuId tpu{};
    std::int64_t capacityMilli = 0;
    std::int64_t chargedMilli = 0;
  };
  // entries_[entry], aborting with `op` and the context on a bad index.
  Entry& checkedEntry(const char* op, std::uint32_t entry,
                      std::uint32_t estimateMilli);

  std::vector<Entry> entries_;  // append-only; indices are stable
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t credited_ = 0;
};

}  // namespace microedge
