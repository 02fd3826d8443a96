// Bin-packing scan orders and their effect on admission outcomes.

#include <gtest/gtest.h>

#include "core/admission.hpp"
#include "models/zoo.hpp"

namespace microedge {
namespace {

class PackingOrderTest : public ::testing::Test {
 protected:
  PackingOrderTest() : zoo_(zoo::standardZoo()) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(pool_.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    // Loads: tpu-0 = 0.5, tpu-1 = 0.2, tpu-2 = 0.8, tpu-3 = 0.
    const ModelId model = internModel(zoo::kMobileNetV1);
    pool_.find(lookupTpu("tpu-0"))
        ->addAllocation(model, TpuUnit::fromDouble(0.5));
    pool_.find(lookupTpu("tpu-1"))
        ->addAllocation(model, TpuUnit::fromDouble(0.2));
    pool_.find(lookupTpu("tpu-2"))
        ->addAllocation(model, TpuUnit::fromDouble(0.8));
  }

  // Every TPU in the fixture has free units, so the 1-milli minimum keeps
  // them all and the order alone is under test.
  std::vector<std::size_t> order(PackingStrategy strategy,
                                 std::size_t nextFitCursor = 0) const {
    return pool_.scan(strategy, TpuUnit::fromMilli(1), nextFitCursor);
  }

  ModelRegistry zoo_;
  TpuPool pool_;
};

TEST_F(PackingOrderTest, FirstFitIsPoolOrder) {
  EXPECT_EQ(order(PackingStrategy::kFirstFit),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST_F(PackingOrderTest, NextFitSkipsClosedBins) {
  EXPECT_EQ(order(PackingStrategy::kNextFit, 2),
            (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(order(PackingStrategy::kNextFit, 9).empty());
}

TEST_F(PackingOrderTest, BestFitMostLoadedFirst) {
  EXPECT_EQ(order(PackingStrategy::kBestFit),
            (std::vector<std::size_t>{2, 0, 1, 3}));
}

TEST_F(PackingOrderTest, WorstFitLeastLoadedFirst) {
  EXPECT_EQ(order(PackingStrategy::kWorstFit),
            (std::vector<std::size_t>{3, 1, 0, 2}));
}

TEST_F(PackingOrderTest, Names) {
  EXPECT_EQ(toString(PackingStrategy::kFirstFit), "first-fit");
  EXPECT_EQ(toString(PackingStrategy::kNextFit), "next-fit");
  EXPECT_EQ(toString(PackingStrategy::kBestFit), "best-fit");
  EXPECT_EQ(toString(PackingStrategy::kWorstFit), "worst-fit");
}

// Strategy comparison on a stream of identical requests: Best-Fit packs
// tightly, Worst-Fit spreads, Next-Fit abandons part-full bins.
TEST(PackingStrategyBehaviourTest, StrategiesProduceDifferentPlacements) {
  ModelRegistry zoo = zoo::standardZoo();

  auto admitStream = [&zoo](PackingStrategy strategy, int requests,
                            double units) {
    TpuPool pool;
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    AdmissionConfig config;
    config.strategy = strategy;
    config.enableWorkloadPartitioning = false;
    AdmissionController admission(pool, zoo, config);
    int admitted = 0;
    for (int i = 0; i < requests; ++i) {
      if (admission
              .admit(static_cast<std::uint64_t>(i + 1), zoo::kMobileNetV1,
                     TpuUnit::fromDouble(units))
              .isOk()) {
        ++admitted;
      }
    }
    return std::make_pair(admitted, pool.usedTpuCount());
  };

  // 0.35-unit requests: First/Best fit 2 per TPU.
  auto firstFit = admitStream(PackingStrategy::kFirstFit, 12, 0.35);
  EXPECT_EQ(firstFit.first, 12);
  EXPECT_EQ(firstFit.second, 6u);

  // Worst-Fit spreads: after 6 requests every TPU carries exactly one.
  {
    TpuPool pool;
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    AdmissionConfig config;
    config.strategy = PackingStrategy::kWorstFit;
    AdmissionController admission(pool, zoo, config);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(admission
                      .admit(static_cast<std::uint64_t>(i + 1),
                             zoo::kMobileNetV1, TpuUnit::fromDouble(0.35))
                      .isOk());
    }
    for (const TpuState& tpu : pool.tpus()) {
      EXPECT_EQ(tpu.currentLoad().milli(), 350) << tpu.id();
    }
  }

  // Next-Fit never revisits earlier bins: four 0.6 requests open four bins,
  // and the following 0.4 requests can only back-fill under First-Fit.
  auto alternating = [&zoo](PackingStrategy strategy) {
    TpuPool pool;
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    AdmissionConfig config;
    config.strategy = strategy;
    config.enableWorkloadPartitioning = false;
    AdmissionController admission(pool, zoo, config);
    int admitted = 0;
    for (int i = 0; i < 10; ++i) {
      double units = i < 4 ? 0.6 : 0.4;
      if (admission
              .admit(static_cast<std::uint64_t>(i + 1), zoo::kMobileNetV1,
                     TpuUnit::fromDouble(units))
              .isOk()) {
        ++admitted;
      }
    }
    return admitted;
  };
  EXPECT_GT(alternating(PackingStrategy::kFirstFit),
            alternating(PackingStrategy::kNextFit));
}

}  // namespace
}  // namespace microedge
