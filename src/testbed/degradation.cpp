#include "testbed/degradation.hpp"

#include <cmath>

namespace microedge {

void StreamDegrader::onFrame() {
  ++terminals_;
  if (terminals_ % kWindowFrames != 0) return;
  ++windowsObserved_;

  const std::uint64_t bad =
      client_.outcomeCount(FrameOutcome::kAdmissionRejected) +
      client_.outcomeCount(FrameOutcome::kTimedOut) +
      client_.outcomeCount(FrameOutcome::kShed);
  const std::uint64_t dBad = bad - prevBad_;
  prevBad_ = bad;
  const double pressure =
      static_cast<double>(dBad) / static_cast<double>(kWindowFrames);

  if (pressure >= stepDownPressure_) {
    cleanStreak_ = 0;
    if (++pressStreak_ >= kSustainWindows &&
        rung_ + 1 < kLadder.size()) {
      ++rung_;
      ++stepDowns_;
      pressStreak_ = 0;
      applyRung();
    }
    return;
  }
  pressStreak_ = 0;
  if (rung_ > 0 && ++cleanStreak_ >= kCoolDownWindows) {
    --rung_;
    ++stepUps_;
    cleanStreak_ = 0;
    applyRung();
  }
}

void StreamDegrader::applyRung() {
  // Hand the rung multiplier to the arbiter, which composes it with the
  // scenario envelope and rounds (nanosecond, or the scenario lattice
  // quantum). Takes effect when the in-flight firing re-arms — no
  // cancel/reschedule, so the event schedule mutation is deterministic
  // wherever onFrame() was called from.
  rate_.setDegrade(kLadder[rung_]);
}

}  // namespace microedge
