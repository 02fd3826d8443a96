// Scenario engine unit tests (DESIGN.md §15): spec fingerprint/validation,
// the envelope math and timeline compilation, the correlated-failure ->
// FaultPlan bridge, and the StreamRateControl arbitration law (envelope and
// degrader multipliers compose without lost updates, on the tick lattice).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "testbed/rate_control.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace microedge {
namespace {

TEST(ScenarioSpec, BuiltinsValidateAndRoundTrip) {
  std::vector<std::string> fingerprints;
  for (const char* name :
       {"diurnal", "flashcrowd", "churn", "failures", "city"}) {
    StatusOr<ScenarioSpec> spec = builtinScenario(name);
    ASSERT_TRUE(spec.isOk()) << name;
    EXPECT_TRUE(spec->validate().isOk()) << name;

    // The fingerprint is the JSON dump's.
    EXPECT_EQ(spec->fingerprint(), jsonFingerprint(spec->toJson())) << name;
    fingerprints.push_back(spec->fingerprint());
  }
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    for (std::size_t j = i + 1; j < fingerprints.size(); ++j) {
      EXPECT_NE(fingerprints[i], fingerprints[j]) << i << " vs " << j;
    }
  }
  EXPECT_FALSE(builtinScenario("no-such-scenario").isOk());
}

TEST(ScenarioSpec, ValidateRejectsMalformedSpecs) {
  ScenarioSpec bad;
  bad.horizonS = 0.0;
  EXPECT_FALSE(bad.validate().isOk());

  bad = ScenarioSpec{};
  bad.diurnal.points = {{2.0, 1.0}, {1.0, 1.5}};  // out of order
  EXPECT_FALSE(bad.validate().isOk());

  bad = ScenarioSpec{};
  bad.phases = {{"a", 4.0}, {"b", 3.0}};  // non-ascending boundaries
  EXPECT_FALSE(bad.validate().isOk());

  bad = ScenarioSpec{};
  bad.churn = {{0, /*joinS=*/20.0, 0.0, 1}};  // join after the horizon
  EXPECT_FALSE(bad.validate().isOk());

  bad = ScenarioSpec{};
  bad.flash = {{-1, 1.0, -0.5, 1.0, 1.0, 2.0}};  // negative edge
  EXPECT_FALSE(bad.validate().isOk());
}

// A time the engine would convert past SimDuration's range (or a sampling
// period under 1 ns) is an InvalidArgument, never a time that wraps in
// secondsF(): ShardedCluster validates every spec before compiling it.
void expectInvalidArgument(const ScenarioSpec& spec, const char* what) {
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidArgument) << what;
}

TEST(ScenarioSpec, ValidateRejectsHorizonPastSimDuration) {
  ScenarioSpec spec;
  spec.horizonS = 1e10;
  expectInvalidArgument(spec, "horizon_s 1e10");
}

TEST(ScenarioSpec, ValidateRejectsOtherUnrepresentableValues) {
  ScenarioSpec spec;
  spec.churn = {{/*tenant=*/-1, /*joinS=*/1.0, /*leaveS=*/1e10, /*count=*/1}};
  expectInvalidArgument(spec, "churn leave_s 1e10");

  spec = ScenarioSpec{};
  spec.failures = {{/*atS=*/1e10, /*tenant=*/0, /*count=*/0}};
  expectInvalidArgument(spec, "failure at_s 1e10");

  spec = ScenarioSpec{};
  spec.detectionDelayS = 1e10;
  expectInvalidArgument(spec, "detection_delay_s 1e10");

  spec = ScenarioSpec{};
  spec.flash = {{/*tenant=*/-1, /*startS=*/1.0, /*rampS=*/1.0,
                 /*holdS=*/1e10, /*decayS=*/1.0, /*peakMultiplier=*/2.0}};
  expectInvalidArgument(spec, "flash hold_s 1e10");

  spec = ScenarioSpec{};
  spec.envelopePeriodS = 1e-12;
  expectInvalidArgument(spec, "envelope_period_s 1e-12");
}

TEST(ScenarioEnvelope, DiurnalInterpolatesAndClampsAtEdges) {
  ScenarioSpec spec;
  spec.horizonS = 10.0;
  spec.diurnal.points = {{2.0, 1.0}, {6.0, 3.0}};
  // Holds the boundary values outside the control points, interpolates
  // linearly between them.
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 0, 4.0), 2.0);
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 0, 6.0), 3.0);
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 0, 9.0), 3.0);
}

TEST(ScenarioEnvelope, FlashCrowdEdgesAndTenantScoping) {
  ScenarioSpec spec;
  spec.horizonS = 12.0;
  spec.flash = {{/*tenant=*/1, /*startS=*/4.0, /*rampS=*/1.0, /*holdS=*/2.0,
                 /*decayS=*/2.0, /*peakMultiplier=*/3.0}};
  // Tenant 0 never sees the crowd.
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 0, 5.5), 1.0);
  // Tenant 1: flat, ramp to peak, hold, decay back to flat.
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 1, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 1, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 1, 6.5), 3.0);
  EXPECT_DOUBLE_EQ(scenarioEnvelopeAt(spec, 1, 9.0), 1.0);
  EXPECT_GT(scenarioEnvelopeAt(spec, 1, 4.5), 1.0);
  EXPECT_LT(scenarioEnvelopeAt(spec, 1, 4.5), 3.0);
}

TEST(ScenarioCompile, RateUpdatesOnlyOnChangeSortedByTime) {
  ScenarioSpec spec;
  spec.horizonS = 4.0;
  spec.envelopePeriodS = 0.5;
  spec.diurnal.points = {{0.0, 1.0}, {2.0, 2.0}};  // then flat at 2.0
  CompiledScenario compiled = compileScenario(spec, /*tenants=*/2);

  // One update per sample while the envelope moves (0.5..2.0), none once it
  // goes flat; tenant-uniform collapses to a single tenant=-1 series.
  ASSERT_EQ(compiled.rateUpdates.size(), 4u);
  for (std::size_t i = 0; i < compiled.rateUpdates.size(); ++i) {
    const ScenarioRateUpdate& update = compiled.rateUpdates[i];
    EXPECT_EQ(update.tenant, -1);
    EXPECT_EQ(update.at, secondsF(0.5 * static_cast<double>(i + 1)));
    EXPECT_DOUBLE_EQ(update.multiplier,
                     scenarioEnvelopeAt(spec, 0, 0.5 * (i + 1)));
    if (i > 0) {
      EXPECT_GT(update.at, compiled.rateUpdates[i - 1].at);
    }
  }
}

TEST(ScenarioCompile, ChurnRoundRobinAndPhaseNormalization) {
  ScenarioSpec spec;
  spec.horizonS = 5.0;
  spec.churn = {{/*tenant=*/-1, /*joinS=*/1.0, /*leaveS=*/4.0, /*count=*/3}};
  spec.phases = {{"a", 2.0}, {"b", 4.0}};  // does not reach the horizon
  CompiledScenario compiled = compileScenario(spec, /*tenants=*/2);

  // tenant=-1 entries expand to one camera each, round-robin over tenants.
  ASSERT_EQ(compiled.churn.size(), 3u);
  EXPECT_EQ(compiled.churn[0].tenant, 0);
  EXPECT_EQ(compiled.churn[1].tenant, 1);
  EXPECT_EQ(compiled.churn[2].tenant, 0);
  for (const ScenarioChurnCamera& camera : compiled.churn) {
    EXPECT_EQ(camera.joinAt, secondsF(1.0));
    EXPECT_EQ(camera.leaveAt, secondsF(4.0));
  }

  // Phase boundaries are normalized to cover exactly [0, horizon].
  ASSERT_EQ(compiled.phaseEnds.size(), compiled.phaseNames.size());
  EXPECT_EQ(compiled.phaseEnds.back(), compiled.horizon);
  for (std::size_t i = 1; i < compiled.phaseEnds.size(); ++i) {
    EXPECT_GT(compiled.phaseEnds[i], compiled.phaseEnds[i - 1]);
  }
}

TEST(ScenarioCompile, FailureGroupsBecomeNodeDeathPlans) {
  ScenarioSpec spec;
  spec.horizonS = 8.0;
  spec.seed = 77;
  spec.detectionDelayS = 0.5;
  spec.failures = {{/*atS=*/3.0, /*tenant=*/0, /*count=*/0},   // whole rack
                   {/*atS=*/5.0, /*tenant=*/1, /*count=*/1},   // first node
                   {/*atS=*/6.0, /*tenant=*/9, /*count=*/0}};  // no such rack
  const std::vector<std::vector<std::string>> nodesByRack = {
      {"t-0-0", "t-0-1"}, {"t-1-0", "t-1-1"}};
  FaultPlan plan = compileScenarioFaults(spec, nodesByRack);

  EXPECT_EQ(plan.seed, 77u);
  EXPECT_EQ(plan.detectionDelay, secondsF(0.5));
  ASSERT_EQ(plan.events.size(), 3u);  // 2 (rack 0) + 1 (rack 1), group 3 gone
  EXPECT_EQ(plan.events[0].kind, FaultKind::kNodeDeath);
  EXPECT_EQ(plan.events[0].target, "t-0-0");
  EXPECT_EQ(plan.events[0].at, secondsF(3.0));
  EXPECT_EQ(plan.events[1].target, "t-0-1");
  EXPECT_EQ(plan.events[2].target, "t-1-0");
  EXPECT_EQ(plan.events[2].at, secondsF(5.0));
}

TEST(RateControl, PeriodForQuantizesToLattice) {
  const SimDuration nominal = framePeriod(15.0);
  // quantum = 0: plain llround — byte-compatible with the pre-lattice
  // degrader math the overload suite pins.
  EXPECT_EQ(StreamRateControl::periodFor(nominal, 1.0, SimDuration::zero()),
            nominal);
  EXPECT_EQ(
      StreamRateControl::periodFor(nominal, 0.75, SimDuration::zero()).count(),
      std::llround(static_cast<double>(nominal.count()) / 0.75));

  // quantum > 0: nearest multiple of the quantum, never below one quantum.
  const SimDuration q{1 << 20};
  for (double mult : {0.25, 0.5, 1.0, 1.7, 2.0, 64.0}) {
    const SimDuration period = StreamRateControl::periodFor(nominal, mult, q);
    EXPECT_EQ(period.count() % q.count(), 0) << mult;
    EXPECT_GE(period, q) << mult;
    EXPECT_LE(std::llabs(period.count() -
                         std::llround(static_cast<double>(nominal.count()) /
                                      mult)),
              q.count() / 2)
        << mult;
  }
  // Absurdly fast retune still lands on the lattice floor.
  EXPECT_EQ(StreamRateControl::periodFor(SimDuration{100}, 50.0, q), q);
}

TEST(RateControl, EnvelopeAndDegradeComposeWithoutLostUpdates) {
  Simulator sim;
  PeriodicTask task(sim, framePeriod(10.0), [] {});
  const SimDuration q{1 << 20};
  StreamRateControl rate(task, framePeriod(10.0), q);

  // The arbitration law: effective period = nominal / (envelope * degrade),
  // quantized. Either side updating must preserve the other's multiplier.
  rate.setEnvelope(2.0);
  EXPECT_EQ(task.period(),
            StreamRateControl::periodFor(framePeriod(10.0), 2.0, q));
  rate.setDegrade(0.5);
  EXPECT_EQ(task.period(),
            StreamRateControl::periodFor(framePeriod(10.0), 1.0, q));

  // Scenario retune with the degrader engaged: the degrade factor is NOT
  // clobbered (the classic lost update this type exists to prevent)...
  rate.setEnvelope(1.0);
  EXPECT_EQ(task.period(),
            StreamRateControl::periodFor(framePeriod(10.0), 0.5, q));
  // ...and the degrader stepping back up does not clobber the envelope.
  rate.setEnvelope(4.0);
  rate.setDegrade(1.0);
  EXPECT_EQ(task.period(),
            StreamRateControl::periodFor(framePeriod(10.0), 4.0, q));
  EXPECT_DOUBLE_EQ(rate.envelope(), 4.0);
  EXPECT_DOUBLE_EQ(rate.degrade(), 1.0);

  // Non-positive multipliers are treated as "no scaling", not division
  // blow-ups.
  rate.setEnvelope(0.0);
  rate.setDegrade(-2.0);
  EXPECT_EQ(task.period(),
            StreamRateControl::periodFor(framePeriod(10.0), 1.0, q));
}

}  // namespace
}  // namespace microedge
