// The extended scheduler: admission + Load dispatch + LBS configuration +
// reclamation registration + rollback on data-plane failure.

#include <gtest/gtest.h>

#include "core/extended_scheduler.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class ExtendedSchedulerTest : public ::testing::Test {
 protected:
  ExtendedSchedulerTest() : zoo_(zoo::standardZoo()) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(pool_.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    admission_ = std::make_unique<AdmissionController>(pool_, zoo_,
                                                       AdmissionConfig{});
    reclamation_ = std::make_unique<Reclamation>(*admission_);
  }

  Pod makePod(std::uint64_t uid, const std::string& model, double units) {
    Pod pod;
    pod.uid = uid;
    pod.spec.name = "cam-" + std::to_string(uid);
    pod.spec.fps = 15.0;
    pod.spec.tpu = TpuRequest{model, units};
    return pod;
  }

  ModelRegistry zoo_;
  TpuPool pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<Reclamation> reclamation_;
  std::vector<std::string> candidates_ = {"vrpi-00", "vrpi-01"};
};

TEST_F(ExtendedSchedulerTest, HappyPathWiresEverything) {
  std::vector<LoadCommand> loads;
  std::vector<std::pair<std::uint64_t, LbConfig>> lbConfigs;
  ExtendedScheduler::Callbacks callbacks;
  callbacks.loadModel = [&](const LoadCommand& cmd) {
    loads.push_back(cmd);
    return Status::ok();
  };
  callbacks.configureLb = [&](std::uint64_t uid, const LbConfig& config) {
    lbConfigs.emplace_back(uid, config);
  };
  ExtendedScheduler scheduler(*admission_, *reclamation_, callbacks);

  auto node = scheduler.schedule(makePod(1, zoo::kSsdMobileNetV2, 0.35),
                                 candidates_);
  ASSERT_TRUE(node.isOk());
  EXPECT_EQ(*node, "vrpi-00");
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].tpuId, "tpu-0");
  ASSERT_EQ(lbConfigs.size(), 1u);
  EXPECT_EQ(lbConfigs[0].first, 1u);
  ASSERT_EQ(lbConfigs[0].second.weights.size(), 1u);
  EXPECT_EQ(lbConfigs[0].second.weights[0].tpu, internTpu("tpu-0"));
  EXPECT_EQ(lbConfigs[0].second.weights[0].weight, 350u);
  EXPECT_TRUE(reclamation_->isTracked(1));
  ASSERT_NE(scheduler.lbConfig(1), nullptr);
}

TEST_F(ExtendedSchedulerTest, PartitionedPodGetsProportionalWeights) {
  ExtendedScheduler scheduler(*admission_, *reclamation_, {});
  // Fill all three TPUs to 0.6 so the fourth 0.6 request must partition
  // 0.4 / 0.2 across the first two residuals.
  for (std::uint64_t uid = 1; uid <= 3; ++uid) {
    ASSERT_TRUE(scheduler.schedule(makePod(uid, zoo::kMobileNetV1, 0.6),
                                   candidates_)
                    .isOk());
  }
  ASSERT_TRUE(scheduler.schedule(makePod(4, zoo::kMobileNetV1, 0.6),
                                 candidates_)
                  .isOk());
  const LbConfig* config = scheduler.lbConfig(4);
  ASSERT_NE(config, nullptr);
  ASSERT_EQ(config->weights.size(), 2u);
  EXPECT_EQ(config->weights[0].tpu, internTpu("tpu-0"));
  EXPECT_EQ(config->weights[0].weight, 400u);
  EXPECT_EQ(config->weights[1].tpu, internTpu("tpu-1"));
  EXPECT_EQ(config->weights[1].weight, 200u);
}

TEST_F(ExtendedSchedulerTest, NonTpuPodPassesThrough) {
  ExtendedScheduler scheduler(*admission_, *reclamation_, {});
  Pod pod;
  pod.uid = 5;
  pod.spec.name = "plain";
  auto node = scheduler.schedule(pod, candidates_);
  ASSERT_TRUE(node.isOk());
  EXPECT_EQ(*node, "vrpi-00");
  EXPECT_FALSE(reclamation_->isTracked(5));
}

TEST_F(ExtendedSchedulerTest, AdmissionRejectionPropagates) {
  ExtendedScheduler scheduler(*admission_, *reclamation_, {});
  auto node = scheduler.schedule(makePod(1, zoo::kMobileNetV1, 3.5),
                                 candidates_);
  EXPECT_FALSE(node.isOk());
  EXPECT_EQ(node.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(pool_.totalLoad().isZero());
}

TEST_F(ExtendedSchedulerTest, LoadFailureRollsBackUnits) {
  ExtendedScheduler::Callbacks callbacks;
  callbacks.loadModel = [](const LoadCommand&) {
    return unavailable("tRPi rebooting");
  };
  ExtendedScheduler scheduler(*admission_, *reclamation_, callbacks);
  auto node = scheduler.schedule(makePod(1, zoo::kMobileNetV1, 0.4),
                                 candidates_);
  EXPECT_FALSE(node.isOk());
  EXPECT_EQ(node.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(pool_.totalLoad().isZero());
  EXPECT_FALSE(reclamation_->isTracked(1));
  EXPECT_EQ(scheduler.lbConfig(1), nullptr);
}

TEST_F(ExtendedSchedulerTest, EmptyCandidateListRejected) {
  ExtendedScheduler scheduler(*admission_, *reclamation_, {});
  auto node = scheduler.schedule(makePod(1, zoo::kMobileNetV1, 0.3), {});
  EXPECT_FALSE(node.isOk());
}

TEST_F(ExtendedSchedulerTest, ForgetPodDropsLbConfig) {
  ExtendedScheduler scheduler(*admission_, *reclamation_, {});
  ASSERT_TRUE(scheduler.schedule(makePod(1, zoo::kMobileNetV1, 0.3),
                                 candidates_)
                  .isOk());
  ASSERT_NE(scheduler.lbConfig(1), nullptr);
  scheduler.forgetPod(1);
  EXPECT_EQ(scheduler.lbConfig(1), nullptr);
}

}  // namespace
}  // namespace microedge
