// Offline admission planner: scenario parsing, plan correctness across
// scheduler modes, and rendering.

#include <gtest/gtest.h>

#include "models/zoo.hpp"
#include "testbed/planner.hpp"

namespace microedge {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  ModelRegistry registry_ = zoo::standardZoo();
};

TEST_F(PlannerTest, ParsesFullScenario) {
  auto scenario = scenarioFromYaml(
      "cluster:\n"
      "  tpus: 4\n"
      "  param-memory-mb: 6.9\n"
      "scheduler:\n"
      "  mode: microedge\n"
      "  co-compile: false\n"
      "  strategy: best-fit\n"
      "pods:\n"
      "  - name: a\n"
      "    model: mobilenet-v1\n"
      "    fps: 30\n"
      "  - name: b\n"
      "    model: unet-v2\n"
      "    tpu-units: 0.5\n",
      registry_);
  ASSERT_TRUE(scenario.isOk()) << scenario.status();
  EXPECT_EQ(scenario->tpus, 4);
  EXPECT_EQ(scenario->mode, SchedulingMode::kMicroEdgeNoWp);
  EXPECT_FALSE(scenario->coCompile);
  EXPECT_EQ(scenario->strategy, PackingStrategy::kBestFit);
  ASSERT_EQ(scenario->pods.size(), 2u);
  EXPECT_DOUBLE_EQ(scenario->pods[0].fps, 30.0);
  EXPECT_DOUBLE_EQ(scenario->pods[1].tpuUnits, 0.5);
}

TEST_F(PlannerTest, DefaultsApply) {
  auto scenario = scenarioFromYaml(
      "pods:\n"
      "  - name: a\n"
      "    model: ssd-mobilenet-v2\n",
      registry_);
  ASSERT_TRUE(scenario.isOk()) << scenario.status();
  EXPECT_EQ(scenario->tpus, 6);
  EXPECT_EQ(scenario->mode, SchedulingMode::kMicroEdgeWp);
  EXPECT_TRUE(scenario->coCompile);
}

TEST_F(PlannerTest, ValidationErrors) {
  EXPECT_FALSE(scenarioFromYaml("pods:\n", registry_).isOk());
  EXPECT_FALSE(scenarioFromYaml("cluster:\n  tpus: 0\npods:\n  - name: a\n"
                                "    model: mobilenet-v1\n",
                                registry_)
                   .isOk());
  EXPECT_FALSE(
      scenarioFromYaml("pods:\n  - name: a\n    model: nope\n", registry_)
          .isOk());
  EXPECT_FALSE(scenarioFromYaml(
                   "scheduler:\n  mode: chaotic\npods:\n  - name: a\n"
                   "    model: mobilenet-v1\n",
                   registry_)
                   .isOk());
  EXPECT_FALSE(scenarioFromYaml(
                   "pods:\n  - name: a\n    model: mobilenet-v1\n"
                   "    tpu-units: -1\n",
                   registry_)
                   .isOk());
}

TEST_F(PlannerTest, NumbersMustBeFiniteAndFitTheirConversions) {
  auto parse = [&](const std::string& cluster, const std::string& pod) {
    return scenarioFromYaml(cluster + "pods:\n  - name: a\n"
                                      "    model: mobilenet-v1\n" + pod,
                            registry_);
  };
  ASSERT_TRUE(parse("", "    fps: 15\n    tpu-units: 0.5\n").isOk());
  // A NaN or 1e-300 fps made --simulate re-arm its camera at one instant
  // forever (the frame period came out negative).
  for (const char* fps : {"nan", "inf", "-inf", "1e-300", "1e300"}) {
    EXPECT_FALSE(parse("", std::string("    fps: ") + fps + "\n").isOk())
        << fps;
  }
  for (const char* units : {"nan", "inf", "1e16"}) {
    EXPECT_FALSE(parse("", std::string("    tpu-units: ") + units + "\n")
                     .isOk())
        << units;
  }
  for (const char* mem : {"nan", "inf"}) {
    EXPECT_FALSE(
        parse(std::string("cluster:\n  param-memory-mb: ") + mem + "\n", "")
            .isOk())
        << mem;
  }
}

TEST_F(PlannerTest, PlanMatchesAdmissionMath) {
  PlannerScenario scenario;
  scenario.tpus = 2;
  for (int i = 0; i < 6; ++i) {
    scenario.pods.push_back(
        {"cam-" + std::to_string(i), zoo::kSsdMobileNetV2, 15.0, 0.0});
  }
  PlannerResult result = planScenario(scenario, registry_);
  // 2 TPUs / 0.35 units -> 5 cameras with workload partitioning.
  EXPECT_EQ(result.accepted, 5u);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_FALSE(result.placements[5].accepted);
  EXPECT_FALSE(result.placements[5].reason.empty());
  // The fifth camera is the partitioned one.
  EXPECT_EQ(result.placements[4].shares.size(), 2u);
  ASSERT_EQ(result.tpus.size(), 2u);
  EXPECT_DOUBLE_EQ(result.tpus[0].load, 1.0);
  EXPECT_DOUBLE_EQ(result.tpus[1].load, 0.75);
}

TEST_F(PlannerTest, BaselineModePlansWholeTpus) {
  PlannerScenario scenario;
  scenario.mode = SchedulingMode::kBaselineDedicated;
  scenario.tpus = 4;
  scenario.pods.push_back({"seg", zoo::kBodyPixMobileNetV1, 15.0, 0.0});
  scenario.pods.push_back({"cam", zoo::kSsdMobileNetV2, 15.0, 0.0});
  PlannerResult result = planScenario(scenario, registry_);
  EXPECT_EQ(result.accepted, 2u);
  EXPECT_EQ(result.placements[0].shares.size(), 2u);  // BodyPix: 2 TPUs
  // Three TPUs fully dedicated.
  int fullyLoaded = 0;
  for (const auto& row : result.tpus) {
    if (row.load == 1.0) ++fullyLoaded;
  }
  EXPECT_EQ(fullyLoaded, 3);
}

TEST_F(PlannerTest, ModelSizeRuleVisibleInPlan) {
  PlannerScenario scenario;
  scenario.tpus = 2;
  scenario.pods.push_back({"ssd", zoo::kSsdMobileNetV2, 15.0, 0.0});
  scenario.pods.push_back({"mn", zoo::kMobileNetV1, 15.0, 0.0});
  PlannerResult result = planScenario(scenario, registry_);
  ASSERT_EQ(result.accepted, 2u);
  // 6.2 + 4.2 MB cannot co-reside: distinct TPUs.
  EXPECT_NE(result.placements[0].shares[0].tpu,
            result.placements[1].shares[0].tpu);
  for (const auto& row : result.tpus) {
    EXPECT_LE(row.usedParamMb, 6.9);
  }
}

TEST_F(PlannerTest, RenderContainsKeyFacts) {
  PlannerScenario scenario;
  scenario.tpus = 1;
  scenario.pods.push_back({"cam", zoo::kSsdMobileNetV2, 15.0, 0.0});
  scenario.pods.push_back({"big", zoo::kBodyPixMobileNetV1, 15.0, 0.0});
  PlannerResult result = planScenario(scenario, registry_);
  std::string rendered = renderPlan(scenario, result);
  EXPECT_NE(rendered.find("cam"), std::string::npos);
  EXPECT_NE(rendered.find("REJECTED"), std::string::npos);
  EXPECT_NE(rendered.find("tpu-00"), std::string::npos);
  EXPECT_NE(rendered.find("accepted 1 / rejected 1"), std::string::npos);
}

TEST_F(PlannerTest, EndToEndFromYaml) {
  auto scenario = scenarioFromYaml(
      "cluster:\n"
      "  tpus: 6\n"
      "pods:\n"
      "  - name: seg-0\n"
      "    model: bodypix-mobilenet-v1\n"
      "  - name: seg-1\n"
      "    model: bodypix-mobilenet-v1\n"
      "  - name: seg-2\n"
      "    model: bodypix-mobilenet-v1\n"
      "  - name: seg-3\n"
      "    model: bodypix-mobilenet-v1\n"
      "  - name: seg-4\n"
      "    model: bodypix-mobilenet-v1\n"
      "  - name: seg-5\n"
      "    model: bodypix-mobilenet-v1\n",
      registry_);
  ASSERT_TRUE(scenario.isOk()) << scenario.status();
  PlannerResult result = planScenario(*scenario, registry_);
  // Fig. 5c's W.P. point: floor(6 / 1.2) = 5 BodyPix cameras.
  EXPECT_EQ(result.accepted, 5u);
  EXPECT_EQ(result.rejected, 1u);
}

TEST_F(PlannerTest, SimulateScenarioDeliversThePlan) {
  PlannerScenario scenario;
  scenario.tpus = 2;
  for (int i = 0; i < 5; ++i) {
    scenario.pods.push_back(
        {"cam-" + std::to_string(i), zoo::kSsdMobileNetV2, 15.0, 0.0});
  }
  scenario.pods.push_back({"overflow", zoo::kSsdMobileNetV2, 15.0, 0.0});
  SimulationOutcome outcome = simulateScenario(scenario, seconds(15));
  EXPECT_EQ(outcome.admitted, 5u);
  EXPECT_EQ(outcome.rejected, 1u);
  ASSERT_EQ(outcome.streams.size(), 6u);
  for (const auto& row : outcome.streams) {
    if (row.pod == "overflow") {
      EXPECT_FALSE(row.admitted);
      continue;
    }
    EXPECT_TRUE(row.admitted);
    EXPECT_NEAR(row.achievedFps, 15.0, 0.6) << row.pod;
    EXPECT_TRUE(row.sloMet) << row.pod;
  }
  // 5 * 0.35 units on 2 TPUs.
  EXPECT_NEAR(outcome.meanTpuUtilization, 0.875, 0.03);
  std::string rendered = renderSimulation(scenario, outcome, seconds(15));
  EXPECT_NE(rendered.find("rejected"), std::string::npos);
  EXPECT_NE(rendered.find("utilization"), std::string::npos);
}

}  // namespace
}  // namespace microedge
