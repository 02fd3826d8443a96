#pragma once

// SLO-triggered runtime repacking (DESIGN.md §14, loop 3).
//
// The defragmenter exists since PR 4 but only ever ran when a bench called
// it by hand. This supervisor closes the loop: it watches *windowed* SLO
// attainment (delta good / delta total between ticks, so one bad minute is
// not diluted by an hour of history) and, after kSustainWindows consecutive
// windows under kAttainmentThreshold, invokes the repack callback — in the
// testbed, Defragmenter::replanAll() pushed through the same drain → replan
// → LB-weight-push path failure recovery uses, which is what makes the
// repack safe under live traffic: in-flight frames drain on their old route
// (the ledger keeps their charges until terminal), new frames route on the
// pushed weights, and a mid-repack fault window just means the replan sees
// the post-fault pool like any other caller.
//
// Deliberately sim-free (core stays pure logic): the owner arms a
// PeriodicTask at kWindow and calls onWindow() from it, so triggering is
// deterministic and seed-replayable. Cooldown and sustain are counted in
// windows for the same reason.

#include <cstdint>
#include <functional>

#include "core/defragmenter.hpp"
#include "util/time.hpp"

namespace microedge {

// Whether the owner arms supervisors at all; the loop's tuning is
// RepackSupervisor's constants.
struct RepackSupervisorConfig {
  bool enabled = false;
};

class RepackSupervisor {
 public:
  // Sampling window; the owner arms its periodic tick at this interval.
  static constexpr SimDuration kWindow = seconds(2);
  // A window with attainment strictly below this is "pressured".
  static constexpr double kAttainmentThreshold = 0.9;
  // Consecutive pressured windows before a repack fires.
  static constexpr std::uint32_t kSustainWindows = 3;
  // Windows to hold off after a repack (applied or rolled back) before the
  // streak may build again — gives pushed weights time to show up in the
  // attainment signal instead of re-triggering on stale misery.
  static constexpr std::uint32_t kCooldownWindows = 5;

  // Cumulative counters since start of run; the supervisor differences
  // successive samples itself.
  struct Sample {
    std::uint64_t good = 0;   // frames that met their SLO
    std::uint64_t total = 0;  // frames with a terminal outcome
  };
  using SampleFn = std::function<Sample()>;
  using RepackFn = std::function<Defragmenter::Report()>;

  RepackSupervisor(SampleFn sample, RepackFn repack)
      : sample_(std::move(sample)), repack_(std::move(repack)) {}

  // One window tick. Returns true when this tick triggered a repack.
  bool onWindow();

  std::uint64_t windowsObserved() const { return windowsObserved_; }
  std::uint64_t pressuredWindows() const { return pressuredWindows_; }
  std::uint64_t repacksTriggered() const { return repacksTriggered_; }
  // Attainment measured at the most recent tick (1.0 before any traffic).
  double lastAttainment() const { return lastAttainment_; }
  const Defragmenter::Report& lastReport() const { return lastReport_; }

 private:
  SampleFn sample_;
  RepackFn repack_;
  Sample prev_{};
  double lastAttainment_ = 1.0;
  std::uint32_t streak_ = 0;
  std::uint32_t cooldown_ = 0;
  std::uint64_t windowsObserved_ = 0;
  std::uint64_t pressuredWindows_ = 0;
  std::uint64_t repacksTriggered_ = 0;
  Defragmenter::Report lastReport_{};
};

}  // namespace microedge
