// The control plane over a one-shard data plane: admission + Load dispatch
// + LB weights + reclamation registration + rollback on a failed Load, and
// the replans that reach pods only through the push and evict hooks.

#include <gtest/gtest.h>

#include "models/zoo.hpp"
#include "testbed/control_plane.hpp"

namespace microedge {
namespace {

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest()
      : zoo_(zoo::standardZoo()), topo_(sharded_, zoo_, threeTpus()),
        dataPlane_(sharded_, topo_, zoo_) {
    for (const auto& tpu : topo_.tpus()) control_.addTpu(*tpu);
  }

  static TopologySpec threeTpus() {
    TopologySpec spec;
    spec.vRpiCount = 2;
    spec.tRpiCount = 3;
    return spec;
  }

  Pod makePod(std::uint64_t uid, const std::string& model, double units) {
    Pod pod;
    pod.uid = uid;
    pod.spec.name = "cam-" + std::to_string(uid);
    pod.spec.fps = 15.0;
    pod.spec.tpu = TpuRequest{model, units};
    return pod;
  }

  LbConfig trackedWeights(std::uint64_t uid) {
    const Allocation* allocation = control_.reclamation().allocationOf(uid);
    EXPECT_NE(allocation, nullptr);
    return allocation == nullptr ? LbConfig{}
                                 : lbConfigFromAllocation(*allocation);
  }

  ShardedSim sharded_{1, NetworkConfig{}.baseLatency};
  Simulator& sim_ = sharded_.shardSim(0);
  ModelRegistry zoo_;
  ClusterTopology topo_;
  DataPlane dataPlane_;
  std::vector<std::pair<std::uint64_t, LbConfig>> pushed_;
  std::vector<std::uint64_t> evicted_;
  ControlPlane control_{
      dataPlane_, zoo_, {},
      {[this](std::uint64_t uid, const LbConfig& lb) {
         pushed_.emplace_back(uid, lb);
       },
       [this](std::uint64_t uid, const Status&) { evicted_.push_back(uid); }}};
  std::vector<std::string> candidates_ = {"vrpi-00", "vrpi-01"};
};

TEST_F(ControlPlaneTest, HappyPathWiresEverything) {
  auto node = control_.schedule(makePod(1, zoo::kSsdMobileNetV2, 0.35),
                                candidates_);
  ASSERT_TRUE(node.isOk());
  EXPECT_EQ(*node, "vrpi-00");
  sim_.run();
  EXPECT_EQ(dataPlane_.service("tpu-00")->loadCount(), 1u);
  EXPECT_TRUE(
      topo_.findTpu("tpu-00")->isResident(lookupModel(zoo::kSsdMobileNetV2)));
  EXPECT_TRUE(control_.reclamation().isTracked(1));
  const LbConfig lb = trackedWeights(1);
  ASSERT_EQ(lb.weights.size(), 1u);
  EXPECT_EQ(lb.weights[0].tpu, internTpu("tpu-00"));
  EXPECT_EQ(lb.weights[0].weight, 350u);
  // Admission weights seed the pod's client; the push hook is for replans.
  EXPECT_TRUE(pushed_.empty());
}

TEST_F(ControlPlaneTest, PartitionedPodGetsProportionalWeights) {
  // Fill all three TPUs to 0.6 so the fourth 0.6 request must partition
  // 0.4 / 0.2 across the first two residuals.
  for (std::uint64_t uid = 1; uid <= 3; ++uid) {
    ASSERT_TRUE(control_.schedule(makePod(uid, zoo::kMobileNetV1, 0.6),
                                  candidates_)
                    .isOk());
  }
  auto lb = control_.admit(4, zoo::kMobileNetV1, TpuUnit::fromDouble(0.6));
  ASSERT_TRUE(lb.isOk()) << lb.status();
  ASSERT_EQ(lb->weights.size(), 2u);
  EXPECT_EQ(lb->weights[0].tpu, internTpu("tpu-00"));
  EXPECT_EQ(lb->weights[0].weight, 400u);
  EXPECT_EQ(lb->weights[1].tpu, internTpu("tpu-01"));
  EXPECT_EQ(lb->weights[1].weight, 200u);
  EXPECT_EQ(trackedWeights(4).weights.size(), 2u);
}

TEST_F(ControlPlaneTest, NonTpuPodPassesThrough) {
  Pod pod;
  pod.uid = 5;
  pod.spec.name = "plain";
  auto node = control_.schedule(pod, candidates_);
  ASSERT_TRUE(node.isOk());
  EXPECT_EQ(*node, "vrpi-00");
  EXPECT_FALSE(control_.reclamation().isTracked(5));
}

TEST_F(ControlPlaneTest, AdmissionRejectionPropagates) {
  auto node = control_.schedule(makePod(1, zoo::kMobileNetV1, 3.5),
                                candidates_);
  EXPECT_FALSE(node.isOk());
  EXPECT_EQ(node.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(control_.pool().totalLoad().isZero());
}

TEST_F(ControlPlaneTest, LoadFailureRollsBackUnits) {
  // Every TPU Service hangs ("tRPi rebooting"): the admission Load fails.
  for (TpuService* service : dataPlane_.services()) service->setHung(true);
  auto node = control_.schedule(makePod(1, zoo::kMobileNetV1, 0.4),
                                candidates_);
  EXPECT_FALSE(node.isOk());
  EXPECT_EQ(node.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(control_.pool().totalLoad().isZero());
  EXPECT_FALSE(control_.reclamation().isTracked(1));
}

TEST_F(ControlPlaneTest, EmptyCandidateListRejected) {
  auto node = control_.schedule(makePod(1, zoo::kMobileNetV1, 0.3), {});
  EXPECT_FALSE(node.isOk());
}

TEST_F(ControlPlaneTest, BaselineHasNoAdmissionControllerAndNoDefragmenter) {
  EXPECT_NE(control_.admission(), nullptr);
  ControlPlane baseline(dataPlane_, zoo_,
                        {SchedulingMode::kBaselineDedicated}, {});
  for (const auto& tpu : topo_.tpus()) baseline.addTpu(*tpu);
  EXPECT_EQ(baseline.admission(), nullptr);
  ASSERT_TRUE(
      baseline.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.4)).isOk());
  EXPECT_FALSE(baseline.defragment().applied);
}

TEST_F(ControlPlaneTest, FailTpuThePoolLacksChangesNothing) {
  ASSERT_TRUE(
      control_.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.5)).isOk());
  const FailureRecovery::Report report = control_.failTpu("tpu-77");
  EXPECT_EQ(report.affectedPods, 0u);
  EXPECT_EQ(report.recoveredPods, 0u);
  EXPECT_EQ(report.evictedPods, 0u);
  EXPECT_EQ(control_.pool().size(), 3u);
  EXPECT_EQ(control_.pool().totalLoad().milli(), 500);
  EXPECT_TRUE(pushed_.empty());
  EXPECT_TRUE(evicted_.empty());
}

TEST_F(ControlPlaneTest, RecoveryPushesTheRetrackedWeights) {
  ASSERT_TRUE(
      control_.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.5)).isOk());
  ASSERT_EQ(trackedWeights(1).weights[0].tpu, internTpu("tpu-00"));
  const FailureRecovery::Report report = control_.failTpu("tpu-00");
  EXPECT_EQ(report.recoveredPods, 1u);
  ASSERT_EQ(pushed_.size(), 1u);
  EXPECT_EQ(pushed_[0].first, 1u);
  const LbConfig retracked = trackedWeights(1);
  ASSERT_EQ(pushed_[0].second.weights.size(), retracked.weights.size());
  for (std::size_t i = 0; i < retracked.weights.size(); ++i) {
    EXPECT_EQ(pushed_[0].second.weights[i].tpu, retracked.weights[i].tpu);
    EXPECT_EQ(pushed_[0].second.weights[i].weight,
              retracked.weights[i].weight);
  }
  EXPECT_EQ(retracked.weights[0].tpu, internTpu("tpu-01"));
  // Failing the same TPU again finds nothing left to do.
  EXPECT_EQ(control_.failTpu("tpu-00").affectedPods, 0u);
  EXPECT_EQ(pushed_.size(), 1u);
}

TEST_F(ControlPlaneTest, PodThatNoLongerFitsIsEvictedThroughTheHook) {
  for (std::uint64_t uid = 1; uid <= 3; ++uid) {
    ASSERT_TRUE(control_.admit(uid, zoo::kMobileNetV1, TpuUnit::fromDouble(1.0))
                    .isOk());
  }
  const FailureRecovery::Report report = control_.failTpu("tpu-01");
  EXPECT_EQ(report.evictedPods, 1u);
  EXPECT_EQ(evicted_, std::vector<std::uint64_t>{2});
  EXPECT_FALSE(control_.reclamation().isTracked(2));
  EXPECT_TRUE(pushed_.empty());
}

}  // namespace
}  // namespace microedge
