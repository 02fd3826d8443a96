// Reclamation: polled release of TPU units for dead pods, lazy model
// reclamation, and the releaseNow escape hatch.

#include <gtest/gtest.h>

#include <set>

#include "core/reclamation.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class ReclamationTest : public ::testing::Test {
 protected:
  ReclamationTest() : zoo_(zoo::standardZoo()) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(pool_.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    admission_ = std::make_unique<AdmissionController>(pool_, zoo_,
                                                       AdmissionConfig{});
    reclamation_ = std::make_unique<Reclamation>(*admission_);
  }

  Allocation admitPod(std::uint64_t uid, double units) {
    auto result =
        admission_->admit(uid, zoo::kMobileNetV1, TpuUnit::fromDouble(units));
    EXPECT_TRUE(result.isOk());
    reclamation_->track(uid, result->allocation);
    return result->allocation;
  }

  ModelRegistry zoo_;
  TpuPool pool_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<Reclamation> reclamation_;
};

TEST_F(ReclamationTest, LivePodsAreUntouched) {
  admitPod(1, 0.5);
  EXPECT_EQ(reclamation_->pollOnce([](std::uint64_t) { return true; }), 0u);
  EXPECT_EQ(pool_.totalLoad().milli(), 500);
  EXPECT_TRUE(reclamation_->isTracked(1));
}

TEST_F(ReclamationTest, DeadPodsReclaimUnits) {
  admitPod(1, 0.5);
  admitPod(2, 0.3);
  std::set<std::uint64_t> alive = {2};
  std::size_t count = reclamation_->pollOnce(
      [&](std::uint64_t uid) { return alive.count(uid) > 0; });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(pool_.totalLoad().milli(), 300);
  EXPECT_FALSE(reclamation_->isTracked(1));
  EXPECT_TRUE(reclamation_->isTracked(2));
}

TEST_F(ReclamationTest, ModelsStayResidentUntilNextCoCompile) {
  admitPod(1, 0.5);
  reclamation_->pollOnce([](std::uint64_t) { return false; });
  const TpuState* tpu = pool_.find(lookupTpu("tpu-0"));
  // Lazy model reclamation (§4.2): the reference count dropped to zero, the
  // model lingers in the resident order.
  EXPECT_FALSE(tpu->hasModel(lookupModel(zoo::kMobileNetV1)));
  EXPECT_EQ(tpu->residentOrder().size(), 1u);
  // A later admission's co-compile purges it.
  auto result =
      admission_->admit(2, zoo::kUNetV2, TpuUnit::fromDouble(0.2));
  ASSERT_TRUE(result.isOk());
  EXPECT_EQ(pool_.find(lookupTpu("tpu-0"))->residentOrder(),
            std::vector<std::string>{zoo::kUNetV2});
}

TEST_F(ReclamationTest, PartitionedAllocationsFullyReturned) {
  auto result = admission_->admit(7, zoo::kBodyPixMobileNetV1,
                                  TpuUnit::fromDouble(1.2));
  ASSERT_TRUE(result.isOk());
  ASSERT_GT(result->allocation.shares.size(), 1u);
  reclamation_->track(7, result->allocation);
  reclamation_->pollOnce([](std::uint64_t) { return false; });
  EXPECT_TRUE(pool_.totalLoad().isZero());
}

TEST_F(ReclamationTest, ReleaseNow) {
  admitPod(1, 0.4);
  EXPECT_TRUE(reclamation_->releaseNow(1).isOk());
  EXPECT_TRUE(pool_.totalLoad().isZero());
  EXPECT_EQ(reclamation_->releaseNow(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(reclamation_->reclaimedCount(), 1u);
}

TEST_F(ReclamationTest, ReclaimUpdatesPackingIndexInPlace) {
  // Pod death -> pollOnce must surface the freed units to the admission
  // scan, not just the TpuState loads.
  Allocation a = admitPod(1, 0.9);
  ASSERT_EQ(a.shares.size(), 1u);
  const TpuId victimTpu = a.shares[0].tpu;
  // Occupy the other two TPUs as well so no TPU has >= 950 milli free.
  admitPod(2, 0.9);
  admitPod(3, 0.9);
  ASSERT_TRUE(
      pool_.scan(PackingStrategy::kFirstFit, TpuUnit::fromMilli(950)).empty());

  reclamation_->pollOnce([](std::uint64_t uid) { return uid != 1; });

  // The freed TPU is immediately the first First-Fit candidate...
  std::vector<std::size_t> freed =
      pool_.scan(PackingStrategy::kFirstFit, TpuUnit::fromMilli(950));
  ASSERT_FALSE(freed.empty());
  EXPECT_EQ(pool_.tpus()[freed.front()].tpuId(), victimTpu);

  // ...and a re-admission lands on it.
  auto result =
      admission_->admit(9, zoo::kMobileNetV1, TpuUnit::fromMilli(950));
  ASSERT_TRUE(result.isOk());
  ASSERT_EQ(result->allocation.shares.size(), 1u);
  EXPECT_EQ(result->allocation.shares[0].tpu, victimTpu);
}

TEST_F(ReclamationTest, PurgeAfterReclaimKeepsIndexConsistent) {
  admitPod(1, 0.5);
  reclamation_->pollOnce([](std::uint64_t) { return false; });
  TpuState* tpu = pool_.find(lookupTpu("tpu-0"));
  ASSERT_NE(tpu, nullptr);
  const TpuUnit load = tpu->currentLoad();
  const std::vector<std::size_t> scanBefore =
      pool_.scan(PackingStrategy::kBestFit, TpuUnit::fromMilli(1));
  // The model lingers with zero references; purging it touches the resident
  // set but not the load, so the admission scan is unchanged.
  ASSERT_EQ(tpu->residentOrder().size(), 1u);
  tpu->purgeDeadModels();
  EXPECT_TRUE(tpu->residentOrder().empty());
  EXPECT_EQ(tpu->liveModelCount(), 0u);
  EXPECT_EQ(tpu->currentLoad().milli(), load.milli());
  EXPECT_EQ(pool_.scan(PackingStrategy::kBestFit, TpuUnit::fromMilli(1)),
            scanBefore);
}

TEST_F(ReclamationTest, CapacityIsReusableAfterReclaim) {
  // Fill the pool, kill everything, refill — the need-basis allocation model
  // from §2 (cameras come and go).
  for (std::uint64_t uid = 1; uid <= 6; ++uid) admitPod(uid, 0.5);
  EXPECT_FALSE(
      admission_->admit(99, zoo::kMobileNetV1, TpuUnit::fromDouble(0.5))
          .isOk());
  reclamation_->pollOnce([](std::uint64_t) { return false; });
  for (std::uint64_t uid = 11; uid <= 16; ++uid) admitPod(uid, 0.5);
  EXPECT_EQ(pool_.totalLoad().milli(), 3000);
}

}  // namespace
}  // namespace microedge
