#include "sweep/grid.hpp"

#include <cassert>

#include "util/rng.hpp"

namespace microedge {

std::uint64_t deriveSweepSeed(std::uint64_t baseSeed,
                              const std::vector<std::size_t>& coords) {
  // Chained finalizer: every coordinate permutes the whole state, so
  // neighbouring points (one coordinate apart) get uncorrelated seeds.
  std::uint64_t s = splitMix64(baseSeed ^ 0x5157454550ULL);  // "SWEEP"
  for (std::size_t c : coords) {
    s = splitMix64(s ^ (static_cast<std::uint64_t>(c) + 1));
  }
  return s;
}

SweepGrid SweepGrid::cartesian(std::string name, std::vector<Axis> axes,
                               std::uint64_t baseSeed) {
  SweepGrid grid;
  grid.name_ = std::move(name);
  grid.axes_ = std::move(axes);
  grid.baseSeed_ = baseSeed;
  return grid;
}

SweepGrid SweepGrid::explicitPoints(std::string name,
                                    std::vector<JsonValue> points,
                                    std::uint64_t baseSeed) {
  SweepGrid grid;
  grid.name_ = std::move(name);
  grid.points_ = std::move(points);
  grid.baseSeed_ = baseSeed;
  return grid;
}

JsonValue SweepGrid::toJson() const {
  JsonValue spec = JsonValue::object();
  spec.set("name", name_);
  if (!driver_.empty()) spec.set("driver", driver_);
  spec.set("seed", baseSeed_);
  if (!points_.empty()) {
    JsonValue points = JsonValue::array();
    for (const JsonValue& p : points_) points.push(p);
    spec.set("points", std::move(points));
    return spec;
  }
  JsonValue axes = JsonValue::array();
  for (const Axis& axis : axes_) {
    JsonValue a = JsonValue::object();
    a.set("name", axis.name);
    JsonValue values = JsonValue::array();
    for (const JsonValue& v : axis.values) values.push(v);
    a.set("values", std::move(values));
    axes.push(std::move(a));
  }
  spec.set("axes", std::move(axes));
  return spec;
}

std::string SweepGrid::fingerprint() const { return jsonFingerprint(toJson()); }

std::size_t SweepGrid::pointCount() const {
  if (!points_.empty()) return points_.size();
  std::size_t n = axes_.empty() ? 0 : 1;
  for (const Axis& axis : axes_) n *= axis.values.size();
  return n;
}

SweepPoint SweepGrid::point(std::size_t index) const {
  assert(index < pointCount() && "sweep point index out of range");
  SweepPoint p;
  p.index = index;
  if (!points_.empty()) {
    p.coords = {index};
    p.values = points_[index];
    p.seed = deriveSweepSeed(baseSeed_, p.coords);
    return p;
  }
  // Row-major: the last axis varies fastest, matching nested for-loops in
  // the hand-written benches this replaces.
  p.coords.resize(axes_.size());
  std::size_t rest = index;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    p.coords[a] = rest % axes_[a].values.size();
    rest /= axes_[a].values.size();
  }
  p.values = JsonValue::object();
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    p.values.set(axes_[a].name, axes_[a].values[p.coords[a]]);
  }
  p.seed = deriveSweepSeed(baseSeed_, p.coords);
  return p;
}

}  // namespace microedge
