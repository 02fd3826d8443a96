#pragma once

// Simulated-time types for MicroEdge.
//
// All latencies in the system (inference service time, network transmission,
// frame periods, pod lifetimes) are expressed in SimDuration, and instants on
// the simulation timeline in SimTime. Using a dedicated chrono clock keeps
// simulated time from being accidentally mixed with wall-clock time.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>

namespace microedge {

// Clock for the discrete-event simulation. Never ticks on its own; the
// Simulator advances it. Satisfies the chrono Clock requirements minus now().
struct SimClock {
  using rep = std::int64_t;
  using period = std::nano;
  using duration = std::chrono::nanoseconds;
  using time_point = std::chrono::time_point<SimClock>;
  static constexpr bool is_steady = true;
};

using SimDuration = SimClock::duration;
using SimTime = SimClock::time_point;

// Simulation origin (t = 0).
inline constexpr SimTime kSimEpoch{};

inline constexpr SimDuration nanoseconds(std::int64_t n) {
  return SimDuration{n};
}
inline constexpr SimDuration microseconds(std::int64_t us) {
  return std::chrono::duration_cast<SimDuration>(std::chrono::microseconds{us});
}
inline constexpr SimDuration milliseconds(std::int64_t ms) {
  return std::chrono::duration_cast<SimDuration>(std::chrono::milliseconds{ms});
}
inline constexpr SimDuration seconds(std::int64_t s) {
  return std::chrono::duration_cast<SimDuration>(std::chrono::seconds{s});
}
inline constexpr SimDuration minutes(std::int64_t m) {
  return std::chrono::duration_cast<SimDuration>(std::chrono::minutes{m});
}

// Fractional constructors, used by calibration code ("23.3 ms per frame").
// Each truncates its nanosecond count to int64, which is defined only when
// fitsSimDuration(count) holds: check outside input with it first.
inline bool fitsSimDuration(double ns) {
  return ns >= -0x1p63 && ns < 0x1p63;  // false for NaN
}
inline SimDuration millisecondsF(double ms) {
  return SimDuration{static_cast<std::int64_t>(ms * 1e6)};
}
inline SimDuration secondsF(double s) {
  return SimDuration{static_cast<std::int64_t>(s * 1e9)};
}

inline constexpr double toMilliseconds(SimDuration d) {
  return static_cast<double>(d.count()) / 1e6;
}
inline constexpr double toSeconds(SimDuration d) {
  return static_cast<double>(d.count()) / 1e9;
}
inline constexpr double toSecondsSinceEpoch(SimTime t) {
  return toSeconds(t.time_since_epoch());
}

// True when framePeriod(fps) is at least 1 ns, so simulated time advances
// between frames, and fits SimDuration: 0 < fps <= 1e9 (false for NaN).
inline bool fitsFramePeriod(double fps) {
  if (!(fps > 0.0)) return false;
  const double ns = 1e9 / fps;
  return ns >= 1.0 && fitsSimDuration(ns);
}
// Period of a fixed frame rate, e.g. framePeriod(15.0) == 66.67ms. Defined
// when fitsFramePeriod(fps) holds.
inline SimDuration framePeriod(double fps) {
  return SimDuration{static_cast<std::int64_t>(1e9 / fps)};
}

std::string toString(SimDuration d);
std::string toString(SimTime t);

inline std::ostream& operator<<(std::ostream& os, SimDuration d) {
  return os << toString(d);
}
inline std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << toString(t);
}

}  // namespace microedge
