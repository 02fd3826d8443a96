#include "sweep/drivers.hpp"

#include <initializer_list>
#include <limits>

#include "models/zoo.hpp"
#include "scenario/spec.hpp"
#include "testbed/scenarios.hpp"
#include "testbed/sharded_cluster.hpp"
#include "util/strings.hpp"

namespace microedge {

namespace {

StatusOr<SchedulingMode> parseMode(const std::string& mode) {
  if (mode == "baseline") return SchedulingMode::kBaselineDedicated;
  if (mode == "no_wp") return SchedulingMode::kMicroEdgeNoWp;
  if (mode == "wp") return SchedulingMode::kMicroEdgeWp;
  return invalidArgument(
      strCat("sweep: unknown mode \"", mode, "\" (baseline|no_wp|wp)"));
}

// Grid-authoring errors surface in-band, so the offending point is visible
// in the merged output.
JsonValue pointError(const Status& status) {
  JsonValue err = JsonValue::object();
  err.set("error", status.toString());
  return err;
}

// Range checks for the numeric fields a driver reads. An out-of-range value
// is a grid-authoring error too: it must not crash the sweep, or simulate
// something other than what the point reports.
Status checkAtLeast(std::string_view field, std::int64_t value,
                    std::int64_t min) {
  if (value >= min && value <= std::numeric_limits<int>::max()) {
    return Status::ok();
  }
  return invalidArgument(strCat("sweep: ", field, " must be an integer >= ",
                                min, ", got ", value));
}

Status checkPositive(std::string_view field, double value) {
  if (value > 0.0) return Status::ok();
  return invalidArgument(
      strCat("sweep: ", field, " must be positive, got ", value));
}

// A duration field whose value comes to `ns` nanoseconds (computed as the
// driver's conversion computes it) must be at least 1 ns, or a horizon runs
// nothing and a period never lets simulated time advance, and must fit
// SimDuration, or it wraps into some other duration.
Status checkDuration(std::string_view field, double value, double ns) {
  if (ns >= 1.0 && fitsSimDuration(ns)) return Status::ok();
  return invalidArgument(strCat(
      "sweep: ", field, " must be between 1 ns and about 292 years, got ",
      value));
}

// A frame rate must give a frame period of at least 1 ns that fits
// SimDuration (fitsFramePeriod), checked before anything converts it.
Status checkFps(double fps) {
  if (fitsFramePeriod(fps)) return Status::ok();
  return invalidArgument(strCat(
      "sweep: fps must give a frame period between 1 ns and about 292 "
      "years, got ",
      fps));
}

Status firstError(std::initializer_list<Status> checks) {
  for (const Status& check : checks) {
    if (!check.isOk()) return check;
  }
  return Status::ok();
}

// Explicit "seed" field wins (paper-shape grids pin the seed the serial
// benches used); otherwise the coordinate-derived per-point seed.
std::uint64_t pointSeed(const SweepPoint& p) {
  const JsonValue* seed = p.values.find("seed");
  return seed != nullptr && seed->isNumber() ? seed->asUint() : p.seed;
}

JsonValue runScalabilitySweepPoint(const SweepPoint& p) {
  ScalabilityScenario scenario;
  StatusOr<SchedulingMode> mode = parseMode(p.getString("mode", "wp"));
  if (!mode.isOk()) return pointError(mode.status());
  const double fps = p.getDouble("fps", 15.0);
  const std::int64_t tpusPerNode = p.getInt("tpus_per_node", 1);
  const std::int64_t upperBound = p.getInt("camera_upper_bound", 64);
  const double horizonS = p.getDouble("horizon_s", 40.0);
  const std::int64_t tpusField = p.getInt("tpus", 1);
  Status valid = firstError(
      {checkFps(fps), checkAtLeast("tpus_per_node", tpusPerNode, 1),
       checkAtLeast("camera_upper_bound", upperBound, 1),
       checkDuration("horizon_s", horizonS, horizonS * 1e9),
       checkAtLeast("tpus", tpusField, 1)});
  if (!valid.isOk()) return pointError(valid);
  scenario.mode = *mode;
  scenario.deployment.model = p.getString("model", zoo::kSsdMobileNetV2);
  if (!zoo::standardZoo().contains(scenario.deployment.model)) {
    return pointError(notFound(
        strCat("sweep: unknown model ", scenario.deployment.model)));
  }
  scenario.deployment.fps = fps;
  scenario.tpusPerNode = static_cast<int>(tpusPerNode);
  scenario.cameraUpperBound = static_cast<int>(upperBound);
  scenario.horizon = secondsF(horizonS);
  scenario.seed = pointSeed(p);
  const int tpus = static_cast<int>(tpusField);
  // The pool is built as tpus / tpus_per_node tRPis, so anything but a
  // multiple would simulate a smaller pool than the point reports.
  if (tpus % scenario.tpusPerNode != 0) {
    return pointError(invalidArgument(
        strCat("sweep: tpus (", tpus, ") must be a positive multiple of "
               "tpus_per_node (", scenario.tpusPerNode, ")")));
  }

  ScalabilityPoint r = runScalabilityPoint(scenario, tpus);
  JsonValue out = JsonValue::object();
  out.set("tpus", r.tpuCount);
  out.set("cameras", r.camerasSupported);
  out.set("mean_utilization", r.meanUtilization);
  out.set("slo_met", r.sloMet);
  out.set("min_fps", r.minAchievedFps);
  return out;
}

JsonValue runTraceSweepPoint(const SweepPoint& p) {
  StatusOr<SchedulingMode> mode = parseMode(p.getString("mode", "wp"));
  if (!mode.isOk()) return pointError(mode.status());
  // window_s is the period of the utilization sampler, a PeriodicTask.
  const double windowS = p.getDouble("window_s", 60.0);
  const double horizonMin = p.getDouble("horizon_min", 20.0);
  const double capacityUnits = p.getDouble("capacity_units", 10.0);
  Status valid = firstError(
      {checkDuration("window_s", windowS, windowS * 1e9),
       checkDuration("horizon_min", horizonMin, horizonMin * 60.0 * 1e9),
       checkPositive("capacity_units", capacityUnits)});
  if (!valid.isOk()) return pointError(valid);
  TraceScenarioConfig config;
  config.trace.horizon = secondsF(horizonMin * 60.0);
  config.trace.seed = pointSeed(p);
  config.capacityUnits = capacityUnits;
  config.sampleWindow = secondsF(windowS);
  config.testbed.mode = *mode;
  config.testbed.enableCoCompile = p.getBool("co_compile", true);

  TraceRunResult r = runTraceScenario(config);
  JsonValue out = JsonValue::object();
  out.set("attempted", r.attempted);
  out.set("accepted", r.accepted);
  out.set("rejected", r.rejected);
  out.set("streams", r.slo.streams);
  out.set("streams_meeting_slo", r.slo.streamsMeetingSlo);
  JsonValue utilization = JsonValue::array();
  for (double u : r.utilizationPerWindow) utilization.push(u);
  out.set("utilization_per_window", std::move(utilization));
  JsonValue active = JsonValue::array();
  for (int a : r.activePerWindow) active.push(static_cast<std::int64_t>(a));
  out.set("active_per_window", std::move(active));
  return out;
}

JsonValue runScenarioSweepPoint(const SweepPoint& p) {
  const std::string name = p.getString("scenario", "flashcrowd");
  StatusOr<ScenarioSpec> specOr = builtinScenario(name);
  if (!specOr.isOk()) return pointError(specOr.status());
  ScenarioSpec spec = *std::move(specOr);
  spec.seed = pointSeed(p);
  // 0 keeps the builtin spec's flash-crowd peak.
  const double peak = p.getDouble("peak", 0.0);
  const std::int64_t shards = p.getInt("shards", 1);
  const std::int64_t racks = p.getInt("racks", 2);
  const std::int64_t vRpisPerRack = p.getInt("vrpis_per_rack", 4);
  const std::int64_t streamsPerVRpi = p.getInt("streams_per_vrpi", 2);
  const double fps = p.getDouble("fps", 24.0);
  const double sloMs = p.getDouble("slo_ms", 60.0);
  Status valid = firstError(
      {peak == 0.0 ? Status::ok() : checkPositive("peak", peak),
       checkAtLeast("shards", shards, 1), checkAtLeast("racks", racks, 1),
       checkAtLeast("vrpis_per_rack", vRpisPerRack, 1),
       checkAtLeast("streams_per_vrpi", streamsPerVRpi, 1),
       checkFps(fps), checkDuration("slo_ms", sloMs, sloMs * 1e6)});
  if (!valid.isOk()) return pointError(valid);
  if (peak > 0.0) {
    for (FlashCrowdSpec& flash : spec.flash) flash.peakMultiplier = peak;
  }

  ShardedClusterConfig config;
  config.shards = static_cast<unsigned>(shards);
  config.racks = static_cast<int>(racks);
  config.tRpisPerRack = 1;
  config.vRpisPerRack = static_cast<int>(vRpisPerRack);
  config.streamsPerVRpi = static_cast<int>(streamsPerVRpi);
  config.fps = fps;
  const SimDuration slo = millisecondsF(sloMs);
  config.scenario.enabled = true;
  config.scenario.spec = spec;
  config.scenario.sloDeadline = slo;
  const std::string policy = p.getString("policy", "none");
  Status applied = applyControlPolicy(policy, slo, &config);
  if (!applied.isOk()) return pointError(applied);

  ShardedCluster cluster(std::move(config));
  if (!cluster.setupStatus().isOk()) return pointError(cluster.setupStatus());
  Status ran = cluster.runScenario();
  if (!ran.isOk()) return pointError(ran);

  JsonValue out = JsonValue::object();
  out.set("scenario", name);
  out.set("policy", policy);
  out.set("submitted", static_cast<std::int64_t>(cluster.totalSubmitted()));
  out.set("completed", static_cast<std::int64_t>(cluster.totalCompleted()));
  out.set("deadline_met",
          static_cast<std::int64_t>(cluster.totalDeadlineMet()));
  out.set("repacks", static_cast<std::int64_t>(cluster.totalRepacks()));
  const std::uint64_t completed = cluster.totalCompleted();
  out.set("attainment",
          completed > 0 ? static_cast<double>(cluster.totalDeadlineMet()) /
                              static_cast<double>(completed)
                        : 1.0);
  out.set("digest", strCat(cluster.digest()));
  JsonValue phases = JsonValue::array();
  for (const ShardedCluster::PhaseStats& ph : cluster.phaseStats()) {
    JsonValue entry = JsonValue::object();
    entry.set("name", ph.name);
    entry.set("completed", static_cast<std::int64_t>(ph.completed));
    entry.set("deadline_met", static_cast<std::int64_t>(ph.deadlineMet));
    entry.set("attainment", ph.attainment);
    entry.set("goodput_fps", ph.goodputFps);
    entry.set("repacks", static_cast<std::int64_t>(ph.repacks));
    phases.push(std::move(entry));
  }
  out.set("phases", std::move(phases));
  return out;
}

JsonValue scalabilityPointSpec(const char* series, const char* label,
                               const char* model, const char* mode, int tpus,
                               int tpusPerNode) {
  JsonValue p = JsonValue::object();
  p.set("series", series);
  p.set("label", label);
  p.set("model", model);
  p.set("fps", 15.0);
  p.set("mode", mode);
  p.set("tpus", tpus);
  p.set("tpus_per_node", tpusPerNode);
  p.set("seed", 7);  // the serial bench's fixed seed (paper-shape output)
  return p;
}

}  // namespace

StatusOr<SweepPointFn> findSweepDriver(const std::string& name) {
  if (name == "scalability") return SweepPointFn(runScalabilitySweepPoint);
  if (name == "trace") return SweepPointFn(runTraceSweepPoint);
  if (name == "scenario") return SweepPointFn(runScenarioSweepPoint);
  return notFound(strCat("sweep: unknown driver \"", name,
                         "\" (scalability|trace|scenario)"));
}

SweepGrid fig5SweepGrid() {
  std::vector<JsonValue> points;
  // Fig. 5a/5b — Coral-Pie: three variants over 1..6 TPUs.
  struct Variant {
    const char* label;
    const char* mode;
  };
  const Variant coralVariants[] = {{"baseline", "baseline"},
                                   {"MicroEdge w/o W.P.", "no_wp"},
                                   {"MicroEdge w/ W.P.", "wp"}};
  for (const Variant& v : coralVariants) {
    for (int tpus = 1; tpus <= 6; ++tpus) {
      points.push_back(scalabilityPointSpec("coral-pie", v.label,
                                            zoo::kSsdMobileNetV2, v.mode,
                                            tpus, 1));
    }
  }
  // Fig. 5c/5d — BodyPix: the bare-metal baseline attaches 2 TPUs per RPi.
  const int bodypixTpus[] = {2, 4, 6};
  for (int tpus : bodypixTpus) {
    points.push_back(scalabilityPointSpec("bodypix", "baseline (2 TPUs/cam)",
                                          zoo::kBodyPixMobileNetV1, "baseline",
                                          tpus, 2));
  }
  for (int tpus : bodypixTpus) {
    points.push_back(scalabilityPointSpec("bodypix", "MicroEdge w/ W.P.",
                                          zoo::kBodyPixMobileNetV1, "wp",
                                          tpus, 1));
  }
  SweepGrid grid = SweepGrid::explicitPoints("fig5", std::move(points), 7);
  grid.setDriver("scalability");
  return grid;
}

SweepGrid fig6SweepGrid() {
  struct Variant {
    const char* label;
    const char* mode;
    bool coCompile;
  };
  const Variant variants[] = {{"baseline", "baseline", true},
                              {"WP+CC", "wp", true},
                              {"WP only", "wp", false},
                              {"CC only", "no_wp", true},
                              {"neither", "no_wp", false}};
  std::vector<JsonValue> points;
  for (const Variant& v : variants) {
    JsonValue p = JsonValue::object();
    p.set("label", v.label);
    p.set("mode", v.mode);
    p.set("co_compile", v.coCompile);
    p.set("horizon_min", 20.0);
    p.set("capacity_units", 10.0);
    p.set("window_s", 60.0);
    p.set("seed", 2022);  // the serial bench's trace seed
    points.push_back(std::move(p));
  }
  SweepGrid grid = SweepGrid::explicitPoints("fig6", std::move(points), 2022);
  grid.setDriver("trace");
  return grid;
}

SweepGrid smokeSweepGrid() {
  // Cartesian on purpose (the built-in explicit grids don't exercise that
  // path): 2 modes x 2 pool sizes, 2-second horizons, derived seeds.
  std::vector<SweepGrid::Axis> axes;
  axes.push_back({"mode", {JsonValue("wp"), JsonValue("no_wp")}});
  axes.push_back({"tpus", {JsonValue(1), JsonValue(2)}});
  axes.push_back({"horizon_s", {JsonValue(2.0)}});
  axes.push_back({"camera_upper_bound", {JsonValue(6)}});
  SweepGrid grid = SweepGrid::cartesian("smoke", std::move(axes), 99);
  grid.setDriver("scalability");
  return grid;
}

SweepGrid scenarioSweepGrid() {
  // SLO attainment x load shape x control policy: every builtin scenario
  // against every overload-control bundle (the §15 ablation map).
  std::vector<SweepGrid::Axis> axes;
  axes.push_back({"scenario",
                  {JsonValue("diurnal"), JsonValue("flashcrowd"),
                   JsonValue("churn"), JsonValue("failures"),
                   JsonValue("city")}});
  axes.push_back({"policy", std::vector<JsonValue>(kControlPolicies.begin(),
                                                   kControlPolicies.end())});
  SweepGrid grid = SweepGrid::cartesian("scenario", std::move(axes), 41);
  grid.setDriver("scenario");
  return grid;
}

StatusOr<SweepGrid> builtinSweepGrid(const std::string& name) {
  if (name == "fig5") return fig5SweepGrid();
  if (name == "fig6") return fig6SweepGrid();
  if (name == "smoke") return smokeSweepGrid();
  if (name == "scenario") return scenarioSweepGrid();
  return notFound(strCat("sweep: no built-in grid \"", name,
                         "\" (fig5|fig6|smoke|scenario)"));
}

}  // namespace microedge
