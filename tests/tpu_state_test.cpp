// Control-plane TPU bookkeeping: loads, model reference counts and lazy
// reclamation semantics.

#include <gtest/gtest.h>

#include "core/tpu_state.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class TpuStateTest : public ::testing::Test {
 protected:
  TpuStateTest() : zoo_(zoo::standardZoo()), tpu_("tpu-00", 6.9) {}

  ModelRegistry zoo_;
  TpuState tpu_;
};

TEST_F(TpuStateTest, FreshState) {
  EXPECT_TRUE(tpu_.currentLoad().isZero());
  EXPECT_EQ(tpu_.freeUnits(), TpuUnit::full());
  EXPECT_EQ(tpu_.liveModelCount(), 0u);
  EXPECT_DOUBLE_EQ(tpu_.usedParamMb(zoo_), 0.0);
}

TEST_F(TpuStateTest, AddAllocationTracksLoadAndRefs) {
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.3));
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.2));
  EXPECT_EQ(tpu_.currentLoad().milli(), 500);
  EXPECT_EQ(tpu_.refCount(lookupModel(zoo::kMobileNetV1)), 2);
  EXPECT_TRUE(tpu_.hasModel(lookupModel(zoo::kMobileNetV1)));
  EXPECT_EQ(tpu_.liveModelCount(), 1u);
  EXPECT_NEAR(tpu_.usedParamMb(zoo_), 4.2, 1e-9);
}

TEST_F(TpuStateTest, RemoveAllocationIsLazyForModels) {
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.3));
  ASSERT_TRUE(
      tpu_.removeAllocation(internModel(zoo::kMobileNetV1),
                            TpuUnit::fromDouble(0.3))
          .isOk());
  EXPECT_TRUE(tpu_.currentLoad().isZero());
  // Reference dropped to zero: the model no longer counts as "in" the TPU
  // for admission, but remains in the resident order until a purge.
  EXPECT_FALSE(tpu_.hasModel(lookupModel(zoo::kMobileNetV1)));
  EXPECT_EQ(tpu_.residentOrder().size(), 1u);
  EXPECT_DOUBLE_EQ(tpu_.usedParamMb(zoo_), 0.0);
  tpu_.purgeDeadModels();
  EXPECT_TRUE(tpu_.residentOrder().empty());
}

TEST_F(TpuStateTest, RemoveAllocationErrors) {
  EXPECT_FALSE(
      tpu_.removeAllocation(internModel(zoo::kMobileNetV1),
                            TpuUnit::fromDouble(0.1))
          .isOk());
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.2));
  // Releasing more load than present is rejected.
  EXPECT_FALSE(
      tpu_.removeAllocation(internModel(zoo::kMobileNetV1),
                            TpuUnit::fromDouble(0.5))
          .isOk());
}

TEST_F(TpuStateTest, ModelFitsRule) {
  // 6.2 MB SSD fits an empty 6.9 MB TPU; adding 4.2 MB MobileNet then fails.
  EXPECT_TRUE(tpu_.modelFits(zoo_, zoo_.at(zoo::kSsdMobileNetV2)));
  tpu_.addAllocation(internModel(zoo::kSsdMobileNetV2),
                     TpuUnit::fromDouble(0.35));
  EXPECT_FALSE(tpu_.modelFits(zoo_, zoo_.at(zoo::kMobileNetV1)));
  // An already-present model always "fits".
  EXPECT_TRUE(tpu_.modelFits(zoo_, zoo_.at(zoo::kSsdMobileNetV2)));
}

TEST_F(TpuStateTest, DeadModelsFreeMemoryForAdmission) {
  tpu_.addAllocation(internModel(zoo::kSsdMobileNetV2),
                     TpuUnit::fromDouble(0.35));
  ASSERT_TRUE(
      tpu_.removeAllocation(internModel(zoo::kSsdMobileNetV2),
                            TpuUnit::fromDouble(0.35))
          .isOk());
  // Zero-ref SSD still resident, but its memory counts as reclaimable.
  EXPECT_TRUE(tpu_.modelFits(zoo_, zoo_.at(zoo::kInceptionV1)));
}

TEST_F(TpuStateTest, LiveModelsPreserveLoadOrder) {
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.1));
  tpu_.addAllocation(internModel(zoo::kUNetV2), TpuUnit::fromDouble(0.1));
  tpu_.addAllocation(internModel(zoo::kMobileNetV2), TpuUnit::fromDouble(0.1));
  auto live = tpu_.liveModelIds();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0], lookupModel(zoo::kMobileNetV1));
  EXPECT_EQ(live[1], lookupModel(zoo::kUNetV2));
  EXPECT_EQ(live[2], lookupModel(zoo::kMobileNetV2));
}

TEST(TpuPoolTest, AddRemoveFind) {
  TpuPool pool;
  EXPECT_TRUE(pool.addTpu("tpu-00", 6.9).isOk());
  EXPECT_TRUE(pool.addTpu("tpu-01", 6.9).isOk());
  EXPECT_EQ(pool.addTpu("tpu-00", 6.9).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(pool.addTpu("tpu-02", 0.0).isOk());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_NE(pool.find(lookupTpu("tpu-01")), nullptr);
  EXPECT_EQ(pool.find(lookupTpu("tpu-09")), nullptr);
  EXPECT_TRUE(pool.removeTpu("tpu-01").isOk());
  EXPECT_EQ(pool.removeTpu("tpu-01").code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.size(), 1u);
}

TEST_F(TpuStateTest, PurgeDeadModelsKeepsLiveRefsAndCounts) {
  tpu_.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromDouble(0.2));
  tpu_.addAllocation(internModel(zoo::kUNetV2), TpuUnit::fromDouble(0.2));
  tpu_.addAllocation(internModel(zoo::kMobileNetV2), TpuUnit::fromDouble(0.2));
  ASSERT_TRUE(
      tpu_.removeAllocation(internModel(zoo::kUNetV2),
                            TpuUnit::fromDouble(0.2)).isOk());
  EXPECT_EQ(tpu_.liveModelCount(), 2u);
  EXPECT_EQ(tpu_.residentOrder().size(), 3u);
  tpu_.purgeDeadModels();
  // Only the zero-reference model is evicted; live refs keep their counts
  // and first-touch order.
  EXPECT_EQ(tpu_.residentOrder(),
            (std::vector<std::string>{zoo::kMobileNetV1, zoo::kMobileNetV2}));
  EXPECT_EQ(tpu_.refCount(lookupModel(zoo::kMobileNetV1)), 1);
  EXPECT_EQ(tpu_.liveModelCount(), 2u);
  EXPECT_EQ(tpu_.currentLoad().milli(), 400);
}

TEST_F(TpuStateTest, PurgeOnEmptyStateIsNoop) {
  tpu_.purgeDeadModels();
  EXPECT_TRUE(tpu_.residentOrder().empty());
  EXPECT_EQ(tpu_.liveModelCount(), 0u);
}

TEST_F(TpuStateTest, ModelIdAndStringApisAgree) {
  ModelId id = zoo_.at(zoo::kMobileNetV1).id;
  ASSERT_TRUE(id.valid());
  tpu_.addAllocation(id, TpuUnit::fromDouble(0.3));
  EXPECT_TRUE(tpu_.hasModel(lookupModel(zoo::kMobileNetV1)));
  EXPECT_TRUE(tpu_.hasModel(id));
  EXPECT_EQ(tpu_.refCount(lookupModel(zoo::kMobileNetV1)), tpu_.refCount(id));
  ASSERT_TRUE(
      tpu_.removeAllocation(internModel(zoo::kMobileNetV1),
                            TpuUnit::fromDouble(0.3))
          .isOk());
  EXPECT_FALSE(tpu_.hasModel(id));
}

TEST(TpuPoolTest, IndexTracksDirectMutations) {
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
  }
  using Order = std::vector<std::size_t>;
  // Mutating a TpuState through the pool (the reclamation/defrag pattern)
  // shows in the next scan without any rebuild step.
  pool.find(lookupTpu("tpu-1"))->addAllocation(internModel(zoo::kMobileNetV1),
                                    TpuUnit::fromMilli(800));
  pool.find(lookupTpu("tpu-2"))->addAllocation(internModel(zoo::kMobileNetV1),
                                    TpuUnit::fromMilli(400));
  EXPECT_EQ(pool.scan(PackingStrategy::kFirstFit, TpuUnit::fromMilli(700)),
            (Order{0, 3}));
  EXPECT_EQ(pool.scan(PackingStrategy::kNextFit, TpuUnit::fromMilli(700), 1),
            (Order{3}));
  EXPECT_EQ(pool.scan(PackingStrategy::kNextFit, TpuUnit::fromMilli(600), 1),
            (Order{2, 3}));
  ASSERT_TRUE(pool.find(lookupTpu("tpu-1"))
                  ->removeAllocation(internModel(zoo::kMobileNetV1),
                                     TpuUnit::fromMilli(800))
                  .isOk());
  EXPECT_EQ(pool.scan(PackingStrategy::kNextFit, TpuUnit::fromMilli(601), 1),
            (Order{1, 3}));
}

TEST(TpuPoolTest, IndexSurvivesRemoveCopyAndMove) {
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
  }
  using Order = std::vector<std::size_t>;
  pool.find(lookupTpu("tpu-3"))->addAllocation(internModel(zoo::kMobileNetV1),
                                               TpuUnit::fromMilli(900));
  ASSERT_TRUE(pool.removeTpu("tpu-1").isOk());
  EXPECT_EQ(pool.find(lookupTpu("tpu-1")), nullptr);
  // tpu-3 moved up to position 2 and keeps its load.
  EXPECT_EQ(pool.scan(PackingStrategy::kBestFit, TpuUnit::fromMilli(1)),
            (Order{2, 0, 1, 3}));

  // Copies (the defragmenter's rollback snapshot) stay independent of the
  // original.
  TpuPool copy = pool;
  copy.find(lookupTpu("tpu-0"))->addAllocation(internModel(zoo::kMobileNetV1),
                                               TpuUnit::fromMilli(500));
  EXPECT_EQ(copy.scan(PackingStrategy::kFirstFit, TpuUnit::fromMilli(600)),
            (Order{1, 3}));
  EXPECT_TRUE(pool.find(lookupTpu("tpu-0"))->currentLoad().isZero());
  EXPECT_EQ(pool.scan(PackingStrategy::kFirstFit, TpuUnit::fromMilli(600)),
            (Order{0, 1, 3}));

  TpuPool moved = std::move(copy);
  EXPECT_EQ(moved.find(lookupTpu("tpu-0"))->currentLoad().milli(), 500);
  EXPECT_EQ(moved.find(lookupTpu("tpu-3"))->currentLoad().milli(), 900);
  EXPECT_EQ(moved.scan(PackingStrategy::kFirstFit, TpuUnit::fromMilli(600)),
            (Order{1, 3}));
}

TEST(TpuPoolTest, ScanCursorOrders) {
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  const int loads[] = {300, 700, 100, 900};  // residuals 700 300 900 100
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    pool.tpus()[static_cast<std::size_t>(i)].addAllocation(
        internModel(zoo::kMobileNetV1), TpuUnit::fromMilli(loads[i]));
  }
  auto collect = [&](PackingStrategy strategy, int minMilli,
                     std::size_t from = 0) {
    return pool.scan(strategy, TpuUnit::fromMilli(minMilli), from);
  };
  using Order = std::vector<std::size_t>;
  EXPECT_EQ(collect(PackingStrategy::kFirstFit, 300), (Order{0, 1, 2}));
  EXPECT_EQ(collect(PackingStrategy::kNextFit, 300, 2), (Order{2}));
  // Best-Fit: tightest residual first; Worst-Fit: emptiest first.
  EXPECT_EQ(collect(PackingStrategy::kBestFit, 100), (Order{3, 1, 0, 2}));
  EXPECT_EQ(collect(PackingStrategy::kWorstFit, 100), (Order{2, 0, 1, 3}));
  // A request larger than one TPU yields no single-TPU candidates.
  EXPECT_TRUE(collect(PackingStrategy::kBestFit, 1200).empty());
  EXPECT_TRUE(collect(PackingStrategy::kWorstFit, 1200).empty());
}

TEST(TpuPoolTest, Aggregates) {
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  ASSERT_TRUE(pool.addTpu("tpu-00", 6.9).isOk());
  ASSERT_TRUE(pool.addTpu("tpu-01", 6.9).isOk());
  ASSERT_TRUE(pool.addTpu("tpu-02", 6.9).isOk());
  pool.find(lookupTpu("tpu-00"))->addAllocation(internModel(zoo::kMobileNetV1),
                                     TpuUnit::fromDouble(0.4));
  pool.find(lookupTpu("tpu-02"))->addAllocation(internModel(zoo::kUNetV2),
                                                TpuUnit::fromDouble(0.5));
  EXPECT_EQ(pool.totalLoad().milli(), 900);
  EXPECT_EQ(pool.usedTpuCount(), 2u);
}

}  // namespace
}  // namespace microedge
