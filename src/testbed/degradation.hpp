#pragma once

// Adaptive per-stream degradation (DESIGN.md §14, loop 2).
//
// When a stream's target shares are saturated, the admission ledger (and,
// without it, deadline shedding) turns the excess into rejected/late frames.
// Dropping every fourth frame of a 15 fps stream is strictly worse for a
// vision pipeline than running the whole stream at a clean 11 fps: the
// controller below trades frame *rate* for frame *reliability* by stepping
// the stream's submit period down a discrete fps-multiplier ladder under
// sustained pressure, and back up with hysteresis once the pressure clears.
//
// The controller is deliberately event-free: it piggybacks on the stream's
// completion callback (onFrame() after every terminal outcome) and evaluates
// one window every kWindowFrames terminals, retuning the stream's period
// through its StreamRateControl arbiter (rate_control.hpp), which composes
// the rung multiplier with the scenario engine's rate envelope and applies
// the one PeriodicTask::setPeriod — effective at the next re-arm. No timer
// of its own means no new event timestamps — a degradation-off run's event
// schedule is untouched byte for byte — and the whole loop is a pure
// function of the stream's own outcome sequence, so a run is exactly
// replayable from its seed. (Cross-shard-count byte-identity with
// degradation on needs the arbiter's quantum lattice — see
// rate_control.hpp; without it, a degraded stream's re-timed frames may
// collide with another stream's timestamps, and same-timestamp tie order is
// a per-shard-count property.)
//
// Hysteresis sketch (why it cannot flap): stepping down requires
// kSustainWindows consecutive windows with pressure >= stepDownPressure;
// stepping up requires kCoolDownWindows consecutive windows with pressure
// below it, and both counters reset on any opposite-sign window. A step in
// either direction therefore moves at most one rung per
// min(kSustainWindows, kCoolDownWindows) windows, and an oscillation
// down-then-up needs the pressure signal itself to cross the threshold in
// both directions at least kSustainWindows + kCoolDownWindows windows apart
// — bounded-frequency by construction. The ladder is finite, so the rung
// sequence converges whenever the pressure signal settles on one side of
// the threshold.

#include <array>
#include <cstdint>

#include "dataplane/tpu_client.hpp"
#include "sim/simulator.hpp"
#include "testbed/rate_control.hpp"
#include "util/time.hpp"

namespace microedge {

struct DegradationConfig {
  bool enabled = false;
  // Window pressure (bad terminals / window terminals) at or above which the
  // window counts toward stepping down. Bad = admission-rejected + timed-out
  // + shed: the outcomes overload produces.
  double stepDownPressure = 0.1;
};

class StreamDegrader {
 public:
  // fps multipliers, descending from full rate. Rung r runs the stream at
  // nominal fps * kLadder[r].
  static constexpr std::array<double, 5> kLadder = {1.0, 0.75, 0.5,
                                                    1.0 / 3.0, 0.25};
  // Terminal outcomes per evaluation window.
  static constexpr std::uint32_t kWindowFrames = 30;
  // Consecutive pressured windows per step down, clean windows per step up.
  static constexpr std::uint32_t kSustainWindows = 2;
  static constexpr std::uint32_t kCoolDownWindows = 4;

  // `rate` is the stream's period arbiter (the degrader owns the degrade
  // input; the scenario envelope composes through the same arbiter). The
  // degrader never starts/stops the task, only retunes it.
  StreamDegrader(TpuClient& client, StreamRateControl& rate,
                 double stepDownPressure)
      : client_(client), rate_(rate), stepDownPressure_(stepDownPressure) {}

  // Hook this into the stream's completion callback (after every terminal
  // outcome, not just completions).
  void onFrame();

  std::size_t rung() const { return rung_; }
  double multiplier() const { return kLadder[rung_]; }
  std::uint64_t stepDowns() const { return stepDowns_; }
  std::uint64_t stepUps() const { return stepUps_; }
  std::uint64_t windowsObserved() const { return windowsObserved_; }

 private:
  void applyRung();

  TpuClient& client_;
  StreamRateControl& rate_;
  double stepDownPressure_;
  std::uint64_t terminals_ = 0;
  // Previous window's cumulative bad-outcome count (admission-rejected +
  // timed-out + shed).
  std::uint64_t prevBad_ = 0;
  std::size_t rung_ = 0;
  std::uint32_t pressStreak_ = 0;
  std::uint32_t cleanStreak_ = 0;
  std::uint64_t stepDowns_ = 0;
  std::uint64_t stepUps_ = 0;
  std::uint64_t windowsObserved_ = 0;
};

}  // namespace microedge
