// Experiment drivers (testbed/scenarios): the machinery behind the Fig. 5 /
// Table 1 / Fig. 6 benches, exercised at small scale.

#include <gtest/gtest.h>

#include "cluster/cost.hpp"
#include "testbed/scenarios.hpp"

namespace microedge {
namespace {

ScalabilityScenario coralPieScenario(SchedulingMode mode) {
  ScalabilityScenario scenario;
  scenario.mode = mode;
  scenario.deployment.model = zoo::kSsdMobileNetV2;
  scenario.deployment.fps = 15.0;
  scenario.horizon = seconds(10);
  return scenario;
}

TEST(ScalabilityScenarioTest, CapacityGrowsLinearlyWithTpus) {
  ScalabilityScenario scenario = coralPieScenario(SchedulingMode::kMicroEdgeWp);
  int prev = 0;
  for (int tpus = 1; tpus <= 4; ++tpus) {
    int capacity = admissionCapacity(scenario, tpus);
    EXPECT_EQ(capacity, (1000 * tpus) / 350) << tpus;
    EXPECT_GT(capacity, prev);
    prev = capacity;
  }
}

TEST(ScalabilityScenarioTest, VariantOrderingHoldsEverywhere) {
  // baseline <= w/o WP <= w/ WP at every pool size — Fig. 5a's ordering.
  for (int tpus : {1, 2, 4, 6}) {
    int baseline = admissionCapacity(
        coralPieScenario(SchedulingMode::kBaselineDedicated), tpus);
    int noWp =
        admissionCapacity(coralPieScenario(SchedulingMode::kMicroEdgeNoWp), tpus);
    int wp =
        admissionCapacity(coralPieScenario(SchedulingMode::kMicroEdgeWp), tpus);
    EXPECT_LE(baseline, noWp) << tpus;
    EXPECT_LE(noWp, wp) << tpus;
    EXPECT_EQ(baseline, tpus);
  }
}

TEST(ScalabilityScenarioTest, BodyPixBaselineUsesTwoTpusPerNode) {
  ScalabilityScenario scenario =
      coralPieScenario(SchedulingMode::kBaselineDedicated);
  scenario.deployment.model = zoo::kBodyPixMobileNetV1;
  scenario.tpusPerNode = 2;
  EXPECT_EQ(admissionCapacity(scenario, 2), 1);
  EXPECT_EQ(admissionCapacity(scenario, 6), 3);
}

TEST(ScalabilityScenarioTest, MeasuredPointCarriesUtilizationAndSlo) {
  ScalabilityScenario scenario = coralPieScenario(SchedulingMode::kMicroEdgeNoWp);
  ScalabilityPoint point = runScalabilityPoint(scenario, 3);
  EXPECT_EQ(point.tpuCount, 3);
  EXPECT_EQ(point.camerasSupported, 6);
  EXPECT_NEAR(point.meanUtilization, 0.70, 0.05);
  EXPECT_TRUE(point.sloMet);
  EXPECT_GT(point.minAchievedFps, 14.0);
}

TEST(CostScenarioTest, SmallFleets) {
  CameraDeployment deployment;
  deployment.model = zoo::kSsdMobileNetV2;
  // 5 cameras: baseline 5 TPUs; w/o WP ceil(5/2)=3; w/ WP ceil(5*0.35)=2.
  CostPoint baseline =
      costToSupport(SchedulingMode::kBaselineDedicated, deployment, 5);
  CostPoint noWp = costToSupport(SchedulingMode::kMicroEdgeNoWp, deployment, 5);
  CostPoint wp = costToSupport(SchedulingMode::kMicroEdgeWp, deployment, 5);
  EXPECT_EQ(baseline.tpus, 5);
  EXPECT_EQ(noWp.tpus, 3);
  EXPECT_EQ(wp.tpus, 2);
  EXPECT_EQ(baseline.rpis, 5);
  CostModel cost;
  EXPECT_DOUBLE_EQ(wp.totalCost, cost.clusterCost(5, 2));
}

TEST(TraceScenarioTest, DeterministicForIdenticalConfig) {
  TraceScenarioConfig config;
  config.trace.horizon = minutes(4);
  config.trace.seed = 99;
  config.capacityUnits = 6.5;
  TraceRunResult a = runTraceScenario(config);
  TraceRunResult b = runTraceScenario(config);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  ASSERT_EQ(a.utilizationPerWindow.size(), b.utilizationPerWindow.size());
  for (std::size_t i = 0; i < a.utilizationPerWindow.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.utilizationPerWindow[i], b.utilizationPerWindow[i]);
  }
  EXPECT_EQ(a.activePerWindow, b.activePerWindow);
}

TEST(TraceScenarioTest, BaselineServesAtMostOneStreamPerTpu) {
  TraceScenarioConfig config;
  config.trace.horizon = minutes(4);
  config.trace.seed = 5;
  config.capacityUnits = 8.0;
  config.testbed.mode = SchedulingMode::kBaselineDedicated;
  TraceRunResult result = runTraceScenario(config);
  for (int active : result.activePerWindow) {
    EXPECT_LE(active, 6);
  }
}

TEST(TraceScenarioTest, TighterCapacityMeansFewerAttempts) {
  auto attemptsAt = [](double capacity) {
    TraceScenarioConfig config;
    config.trace.horizon = minutes(4);
    config.trace.seed = 13;
    config.capacityUnits = capacity;
    return runTraceScenario(config).attempted;
  };
  EXPECT_LE(attemptsAt(3.0), attemptsAt(9.0));
}

}  // namespace
}  // namespace microedge
