#include "sweep/grid.hpp"

#include <cassert>

#include "util/rng.hpp"
#include "util/strings.hpp"

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

namespace {

Status tooManyPoints() {
  return invalidArgument(
      strCat("sweep grid: more than ", kMaxSweepPoints, " points"));
}

}  // namespace

StatusOr<SweepGrid> SweepGrid::fromJson(const JsonValue& spec) {
  if (!spec.isObject()) return invalidArgument("sweep grid: not an object");
  SweepGrid grid;
  grid.name_ = spec.getString("name", "sweep");
  grid.driver_ = spec.getString("driver", "");
  grid.baseSeed_ = static_cast<std::uint64_t>(spec.getInt("seed", 0));

  const JsonValue* points = spec.find("points");
  const JsonValue* axes = spec.find("axes");
  if (points != nullptr && axes != nullptr) {
    return invalidArgument("sweep grid: give either \"axes\" or \"points\"");
  }
  if (points != nullptr) {
    if (!points->isArray() || points->items().empty()) {
      return invalidArgument("sweep grid: \"points\" must be a non-empty array");
    }
    if (points->size() > kMaxSweepPoints) return tooManyPoints();
    for (const JsonValue& p : points->items()) {
      if (!p.isObject()) {
        return invalidArgument("sweep grid: every point must be an object");
      }
    }
    grid.points_ = points->items();
    return grid;
  }
  if (axes == nullptr || !axes->isArray() || axes->items().empty()) {
    return invalidArgument("sweep grid: missing \"axes\" (or \"points\")");
  }
  std::size_t count = 1;
  for (const JsonValue& axis : axes->items()) {
    const JsonValue* values = axis.find("values");
    std::string axisName = axis.getString("name", "");
    if (axisName.empty() || values == nullptr || !values->isArray() ||
        values->items().empty()) {
      return invalidArgument(
          "sweep grid: each axis needs a name and non-empty values");
    }
    // Divided, not multiplied, so the product cannot wrap.
    if (values->size() > kMaxSweepPoints / count) return tooManyPoints();
    count *= values->size();
    grid.axes_.push_back(Axis{std::move(axisName), values->items()});
  }
  return grid;
}

StatusOr<SweepGrid> SweepGrid::fromJsonText(std::string_view text) {
  StatusOr<JsonValue> parsed = JsonValue::parse(text);
  if (!parsed.isOk()) return parsed.status();
  return fromJson(*parsed);
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
