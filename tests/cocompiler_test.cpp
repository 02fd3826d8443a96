// Co-compile planner: the Load it builds (composite construction, the 6.9 MB
// parameter budget, lazy exclusion of dead models) and latency estimation.

#include <gtest/gtest.h>

#include "core/cocompiler.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class CoCompilerTest : public ::testing::Test {
 protected:
  CoCompilerTest()
      : zoo_(zoo::standardZoo()), compiler_(zoo_), tpu_("tpu-00", 6.9) {}

  ModelRegistry zoo_;
  CoCompiler compiler_;
  TpuState tpu_;
};

TEST_F(CoCompilerTest, FreshPlanSingleModel) {
  LoadCommand load = compiler_.planFresh(tpu_, zoo_.at(zoo::kMobileNetV1));
  EXPECT_EQ(load.tpuId, "tpu-00");
  ASSERT_EQ(load.composite.size(), 1u);
  EXPECT_EQ(load.composite[0], zoo::kMobileNetV1);
  // Compiled from MobileNet V1's parameters alone.
  EXPECT_EQ(load.compileLatency,
            compiler_.estimateLatency(zoo_.at(zoo::kMobileNetV1).paramSizeMb));
  EXPECT_GT(load.compileLatency, SimDuration::zero());
}

TEST_F(CoCompilerTest, PlanAddAppendsNewModelLast) {
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.2));
  auto plan = compiler_.planAdd(tpu_, zoo_.at(zoo::kUNetV2));
  ASSERT_TRUE(plan.isOk()) << plan.status();
  ASSERT_EQ(plan->composite.size(), 2u);
  // Existing residents keep higher priority; new model is appended.
  EXPECT_EQ(plan->composite[0], zoo::kMobileNetV1);
  EXPECT_EQ(plan->composite[1], zoo::kUNetV2);
  EXPECT_EQ(plan->compileLatency,
            compiler_.estimateLatency(zoo_.at(zoo::kMobileNetV1).paramSizeMb +
                                      zoo_.at(zoo::kUNetV2).paramSizeMb));
}

TEST_F(CoCompilerTest, PlanAddIdempotentForPresentModel) {
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.2));
  auto plan = compiler_.planAdd(tpu_, zoo_.at(zoo::kMobileNetV1));
  ASSERT_TRUE(plan.isOk());
  EXPECT_EQ(plan->composite.size(), 1u);
}

TEST_F(CoCompilerTest, EnforcesParameterBudget) {
  // SSD MobileNet V2 (6.2) + MobileNet V1 (4.2) > 6.9 MB.
  tpu_.addAllocation(internModel(zoo::kSsdMobileNetV2),
                     TpuUnit::fromDouble(0.35));
  auto plan = compiler_.planAdd(tpu_, zoo_.at(zoo::kMobileNetV1));
  ASSERT_FALSE(plan.isOk());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CoCompilerTest, DeadModelsExcludedFromComposite) {
  // Lazy reclamation: a zero-reference SSD must be excluded, making room.
  tpu_.addAllocation(internModel(zoo::kSsdMobileNetV2),
                     TpuUnit::fromDouble(0.35));
  ASSERT_TRUE(
      tpu_.removeAllocation(internModel(zoo::kSsdMobileNetV2),
                            TpuUnit::fromDouble(0.35))
          .isOk());
  auto plan = compiler_.planAdd(tpu_, zoo_.at(zoo::kMobileNetV1));
  ASSERT_TRUE(plan.isOk()) << plan.status();
  ASSERT_EQ(plan->composite.size(), 1u);
  EXPECT_EQ(plan->composite[0], zoo::kMobileNetV1);
}

TEST_F(CoCompilerTest, LatencyGrowsWithCompositeSize) {
  SimDuration small = compiler_.estimateLatency(2.0);
  SimDuration large = compiler_.estimateLatency(6.5);
  EXPECT_GT(large, small);
  // Seconds-scale, not on the admission critical path (§6.4.1).
  EXPECT_GT(small, milliseconds(1000));
}

TEST_F(CoCompilerTest, PairThatFitsBudget) {
  // MobileNet V1 (4.2) + UNet V2 (2.5) = 6.7 <= 6.9: the trace study's
  // feasible co-residency pair.
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.1));
  auto plan = compiler_.planAdd(tpu_, zoo_.at(zoo::kUNetV2));
  ASSERT_TRUE(plan.isOk());
  // Both models compile into one composite.
  EXPECT_EQ(plan->composite.size(), 2u);
  EXPECT_GT(plan->compileLatency,
            compiler_.estimateLatency(zoo_.at(zoo::kMobileNetV1).paramSizeMb));
}

}  // namespace
}  // namespace microedge
