#pragma once

// Experiment-grid description for the sweep subsystem (§6's figure grids).
//
// A SweepGrid names the space of independent simulation points an
// experiment covers: either the cartesian product of a handful of axes
// (model × fps × pool-size × strategy × seed — Fig. 5's shape) or an
// explicit list of point objects (Fig. 6's five named variants). Grids are
// built in code (sweep/drivers.hpp holds the built-in ones); their JSON
// form is what sweep_runner --dump-grid prints and what the fingerprint the
// merged result carries is taken over:
//
//   {
//     "name": "fig5-coral-pie",
//     "driver": "scalability",          // PointFn the runner dispatches to
//     "seed": 7,                        // base seed for derivation
//     "axes": [
//       {"name": "mode", "values": ["baseline", "no_wp", "wp"]},
//       {"name": "tpus", "values": [1, 2, 3, 4, 5, 6]}
//     ],
//     "points": [ {...}, ... ]          // explicit list (instead of axes)
//   }
//
// Point order is the row-major cartesian order (last axis fastest) or the
// explicit list order; it is the canonical order of the merged output. A
// point's seed is splitMix64 chained over (base seed, coordinates) — a pure
// function of grid position, so neither the thread that happens to run the
// point nor the order points complete can perturb any downstream RNG.

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace microedge {

// One materialized grid point, handed to the point function.
struct SweepPoint {
  std::size_t index = 0;             // position in canonical grid order
  std::vector<std::size_t> coords;   // per-axis value index ({index} when
                                     // the grid is an explicit point list)
  JsonValue values;                  // object: axis/field name -> value
  std::uint64_t seed = 0;            // derived; see deriveSweepSeed()

  // Typed field access with defaults (missing fields fall back).
  std::int64_t getInt(std::string_view key, std::int64_t fallback) const {
    return values.getInt(key, fallback);
  }
  double getDouble(std::string_view key, double fallback) const {
    return values.getDouble(key, fallback);
  }
  std::string getString(std::string_view key,
                        std::string_view fallback) const {
    return values.getString(key, fallback);
  }
  bool getBool(std::string_view key, bool fallback) const {
    return values.getBool(key, fallback);
  }
};

// splitMix64 chained over the base seed and the point's coordinates.
std::uint64_t deriveSweepSeed(std::uint64_t baseSeed,
                              const std::vector<std::size_t>& coords);

class SweepGrid {
 public:
  struct Axis {
    std::string name;
    std::vector<JsonValue> values;
  };

  SweepGrid() = default;

  // Builder API (benches assemble their grids in code, then dump them).
  static SweepGrid cartesian(std::string name, std::vector<Axis> axes,
                             std::uint64_t baseSeed = 0);
  static SweepGrid explicitPoints(std::string name,
                                  std::vector<JsonValue> points,
                                  std::uint64_t baseSeed = 0);

  JsonValue toJson() const;

  // jsonFingerprint(toJson()): names the grid in the merged document.
  std::string fingerprint() const;

  const std::string& name() const { return name_; }
  const std::string& driver() const { return driver_; }
  void setDriver(std::string driver) { driver_ = std::move(driver); }
  std::uint64_t baseSeed() const { return baseSeed_; }

  std::size_t pointCount() const;
  // Materializes point `index` (coords, merged values, derived seed).
  // Precondition: index < pointCount().
  SweepPoint point(std::size_t index) const;

 private:
  std::string name_;
  std::string driver_;
  std::uint64_t baseSeed_ = 0;
  std::vector<Axis> axes_;           // cartesian form
  std::vector<JsonValue> points_;    // explicit form (objects)
};

}  // namespace microedge
