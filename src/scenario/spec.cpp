#include "scenario/spec.hpp"

#include "util/strings.hpp"
#include "util/time.hpp"

namespace microedge {

namespace {

// A time in seconds is >= 0 and, since the engine converts times with
// secondsF(), fits SimDuration (int64 ns, about 292 years).
Status checkSeconds(const char* what, double v) {
  if (v >= 0.0 && fitsSimDuration(v * 1e9)) return Status::ok();
  return invalidArgument(strCat(
      "scenario: ", what, " must be >= 0 and at most about 292 years (got ",
      v, ")"));
}

}  // namespace

Status ScenarioSpec::validate() const {
  if (name.empty()) return invalidArgument("scenario: name must be non-empty");
  if (horizonS <= 0.0) {
    return invalidArgument("scenario: horizon_s must be > 0");
  }
  // compileScenario counts horizon_s / envelope_period_s samples in int64.
  if (!(envelopePeriodS * 1e9 >= 1.0)) {
    return invalidArgument("scenario: envelope_period_s must be >= 1 ns");
  }
  if (quantumNs < 0) {
    return invalidArgument("scenario: quantum_ns must be >= 0");
  }
  Status times = checkSeconds("horizon_s", horizonS);
  if (times.isOk()) times = checkSeconds("envelope_period_s", envelopePeriodS);
  if (times.isOk()) times = checkSeconds("detection_delay_s", detectionDelayS);
  if (!times.isOk()) return times;
  for (std::size_t i = 0; i < diurnal.points.size(); ++i) {
    const DiurnalSpec::Point& p = diurnal.points[i];
    if (p.multiplier <= 0.0) {
      return invalidArgument("scenario: diurnal multiplier must be > 0");
    }
    if (i > 0 && p.atS <= diurnal.points[i - 1].atS) {
      return invalidArgument(
          "scenario: diurnal points must be strictly ascending in time");
    }
  }
  for (const FlashCrowdSpec& f : flash) {
    if (f.peakMultiplier <= 0.0) {
      return invalidArgument("scenario: flash peak must be > 0");
    }
    Status s = checkSeconds("flash start_s", f.startS);
    if (s.isOk()) s = checkSeconds("flash ramp_s", f.rampS);
    if (s.isOk()) s = checkSeconds("flash hold_s", f.holdS);
    if (s.isOk()) s = checkSeconds("flash decay_s", f.decayS);
    if (!s.isOk()) return s;
  }
  for (const ChurnSpec& c : churn) {
    if (c.count < 1) return invalidArgument("scenario: churn count must be >= 1");
    if (c.joinS < 0.0 || c.leaveS < 0.0) {
      return invalidArgument("scenario: churn times must be >= 0");
    }
    if (c.joinS >= horizonS) {
      return invalidArgument("scenario: churn join_s must precede the horizon");
    }
    if (c.leaveS > 0.0 && c.leaveS <= c.joinS) {
      return invalidArgument("scenario: churn leave_s must follow join_s");
    }
    Status s = checkSeconds("churn leave_s", c.leaveS);
    if (!s.isOk()) return s;
  }
  for (const FailureGroupSpec& g : failures) {
    if (g.tenant < 0) {
      return invalidArgument("scenario: failure tenant must be >= 0");
    }
    if (g.count < 0) {
      return invalidArgument("scenario: failure count must be >= 0");
    }
    Status s = checkSeconds("failure at_s", g.atS);
    if (!s.isOk()) return s;
  }
  double prev = 0.0;
  for (const PhaseSpec& p : phases) {
    if (p.name.empty()) {
      return invalidArgument("scenario: phase name must be non-empty");
    }
    if (p.untilS <= prev) {
      return invalidArgument(
          "scenario: phase boundaries must be strictly ascending");
    }
    prev = p.untilS;
  }
  if (!phases.empty() && phases.back().untilS > horizonS) {
    return invalidArgument("scenario: phases must end at or before horizon_s");
  }
  return Status::ok();
}

JsonValue ScenarioSpec::toJson() const {
  JsonValue out = JsonValue::object();
  out.set("name", name);
  out.set("seed", seed);
  out.set("horizon_s", horizonS);
  out.set("envelope_period_s", envelopePeriodS);
  out.set("quantum_ns", quantumNs);
  out.set("detection_delay_s", detectionDelayS);
  if (!diurnal.points.empty()) {
    JsonValue points = JsonValue::array();
    for (const DiurnalSpec::Point& p : diurnal.points) {
      JsonValue pt = JsonValue::object();
      pt.set("at_s", p.atS);
      pt.set("mult", p.multiplier);
      points.push(std::move(pt));
    }
    out.set("diurnal", std::move(points));
  }
  if (!flash.empty()) {
    JsonValue crowds = JsonValue::array();
    for (const FlashCrowdSpec& f : flash) {
      JsonValue c = JsonValue::object();
      c.set("tenant", f.tenant);
      c.set("start_s", f.startS);
      c.set("ramp_s", f.rampS);
      c.set("hold_s", f.holdS);
      c.set("decay_s", f.decayS);
      c.set("peak", f.peakMultiplier);
      crowds.push(std::move(c));
    }
    out.set("flash", std::move(crowds));
  }
  if (!churn.empty()) {
    JsonValue entries = JsonValue::array();
    for (const ChurnSpec& c : churn) {
      JsonValue e = JsonValue::object();
      e.set("tenant", c.tenant);
      e.set("join_s", c.joinS);
      e.set("leave_s", c.leaveS);
      e.set("count", c.count);
      entries.push(std::move(e));
    }
    out.set("churn", std::move(entries));
  }
  if (!failures.empty()) {
    JsonValue groups = JsonValue::array();
    for (const FailureGroupSpec& g : failures) {
      JsonValue e = JsonValue::object();
      e.set("at_s", g.atS);
      e.set("tenant", g.tenant);
      e.set("count", g.count);
      groups.push(std::move(e));
    }
    out.set("failures", std::move(groups));
  }
  if (!phases.empty()) {
    JsonValue list = JsonValue::array();
    for (const PhaseSpec& p : phases) {
      JsonValue e = JsonValue::object();
      e.set("name", p.name);
      e.set("until_s", p.untilS);
      list.push(std::move(e));
    }
    out.set("phases", std::move(list));
  }
  return out;
}

std::string ScenarioSpec::fingerprint() const {
  return jsonFingerprint(toJson());
}

StatusOr<ScenarioSpec> builtinScenario(const std::string& name) {
  ScenarioSpec s;
  s.name = name;
  if (name == "diurnal") {
    // A compressed day: quiet night, morning ramp to full rate, evening
    // fall-off. Pure envelope — no crowds, churn or faults.
    s.horizonS = 9.0;
    s.diurnal.points = {{0.0, 0.55}, {3.0, 1.0}, {6.0, 1.0}, {9.0, 0.5}};
    s.phases = {{"night", 3.0}, {"day", 6.0}, {"evening", 9.0}};
    return s;
  }
  if (name == "flashcrowd") {
    // Every tenant's rate doubles for a 3-second hold: the 2x-peak workload
    // the overload-control acceptance bench runs per policy.
    s.horizonS = 12.0;
    s.flash = {{/*tenant=*/-1, /*startS=*/4.0, /*rampS=*/1.0, /*holdS=*/3.0,
                /*decayS=*/1.0, /*peakMultiplier=*/2.0}};
    s.phases = {{"baseline", 4.0}, {"ramp", 5.0}, {"peak", 8.0},
                {"decay", 9.0}, {"recovery", 12.0}};
    return s;
  }
  if (name == "churn") {
    // A wave of cameras joins mid-run and drains out again, plus a late
    // tenant-0 join that stays to the end.
    s.horizonS = 10.0;
    s.churn = {{/*tenant=*/-1, /*joinS=*/2.0, /*leaveS=*/7.0, /*count=*/4},
               {/*tenant=*/0, /*joinS=*/3.5, /*leaveS=*/0.0, /*count=*/2}};
    s.phases = {{"steady", 2.0}, {"joined", 7.0}, {"drained", 10.0}};
    return s;
  }
  if (name == "failures") {
    // Correlated rack failure: every tRPi of tenant 0 dies at t=3 (the
    // rack/switch-scoped fault group), through the standard FaultPlan path.
    s.horizonS = 8.0;
    s.failures = {{/*atS=*/3.0, /*tenant=*/0, /*count=*/0}};
    s.phases = {{"healthy", 3.0}, {"degraded", 8.0}};
    return s;
  }
  if (name == "city") {
    // Everything at once — the determinism suite's combined witness:
    // diurnal swing + a tenant-1 flash crowd + join/leave churn + a
    // correlated tenant-0 failure.
    s.horizonS = 12.0;
    s.diurnal.points = {{0.0, 0.7}, {4.0, 1.0}, {10.0, 0.8}};
    s.flash = {{/*tenant=*/1, /*startS=*/5.0, /*rampS=*/1.0, /*holdS=*/2.0,
                /*decayS=*/1.0, /*peakMultiplier=*/1.8}};
    s.churn = {{/*tenant=*/-1, /*joinS=*/2.5, /*leaveS=*/9.0, /*count=*/3},
               {/*tenant=*/1, /*joinS=*/4.25, /*leaveS=*/0.0, /*count=*/1}};
    s.failures = {{/*atS=*/6.5, /*tenant=*/0, /*count=*/1}};
    s.phases = {{"warmup", 2.5}, {"churned", 5.0}, {"crowded", 9.0},
                {"drain", 12.0}};
    return s;
  }
  return notFound(strCat("scenario: no built-in \"", name,
                         "\" (diurnal|flashcrowd|churn|failures|city)"));
}

}  // namespace microedge
