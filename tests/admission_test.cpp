// Admission control (Algorithm 1): the TPU Units Rule, the Model Size Rule,
// workload partitioning, all-or-nothing commit, and pool invariants under
// randomized request/release sequences.

#include <gtest/gtest.h>

#include <set>

#include "core/admission.hpp"
#include "models/zoo.hpp"
#include "util/rng.hpp"

namespace microedge {
namespace {

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest() : zoo_(zoo::standardZoo()) {}

  void buildPool(int tpus) {
    for (int i = 0; i < tpus; ++i) {
      ASSERT_TRUE(pool_.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
  }

  ModelRegistry zoo_;
  TpuPool pool_;
};

TEST_F(AdmissionTest, SingleRequestLandsOnFirstTpu) {
  buildPool(3);
  AdmissionController admission(pool_, zoo_, {});
  auto result = admission.admit(1, zoo::kSsdMobileNetV2, TpuUnit::fromDouble(0.35));
  ASSERT_TRUE(result.isOk());
  ASSERT_EQ(result->allocation.shares.size(), 1u);
  EXPECT_EQ(result->allocation.shares[0].tpuId, "tpu-0");
  EXPECT_EQ(result->allocation.shares[0].units.milli(), 350);
  ASSERT_EQ(result->loads.size(), 1u);
  EXPECT_EQ(result->loads[0].composite,
            std::vector<std::string>{zoo::kSsdMobileNetV2});
}

TEST_F(AdmissionTest, TpuUnitsRuleTwo035FitThirdSpills) {
  buildPool(2);
  AdmissionController admission(pool_, zoo_, {});
  TpuUnit units = TpuUnit::fromDouble(0.35);
  for (std::uint64_t pod = 1; pod <= 3; ++pod) {
    auto result = admission.admit(pod, zoo::kSsdMobileNetV2, units);
    ASSERT_TRUE(result.isOk()) << "pod " << pod;
    EXPECT_EQ(result->allocation.shares[0].tpuId, pod <= 2 ? "tpu-0" : "tpu-1");
  }
  EXPECT_EQ(pool_.find("tpu-0")->currentLoad().milli(), 700);
  EXPECT_EQ(pool_.find("tpu-1")->currentLoad().milli(), 350);
}

TEST_F(AdmissionTest, SecondPodSameModelProducesNoNewLoadCommand) {
  buildPool(1);
  AdmissionController admission(pool_, zoo_, {});
  auto first = admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.2));
  ASSERT_TRUE(first.isOk());
  EXPECT_EQ(first->loads.size(), 1u);
  auto second = admission.admit(2, zoo::kMobileNetV1, TpuUnit::fromDouble(0.2));
  ASSERT_TRUE(second.isOk());
  // Model already resident: no model-switching overhead (§4.1's motivation
  // for the Model knob).
  EXPECT_TRUE(second->loads.empty());
}

TEST_F(AdmissionTest, ModelSizeRuleForcesSeparateTpus) {
  buildPool(2);
  AdmissionController admission(pool_, zoo_, {});
  // SSD (6.2 MB) occupies tpu-0; MobileNet V1 (4.2 MB) cannot co-reside.
  ASSERT_TRUE(
      admission.admit(1, zoo::kSsdMobileNetV2, TpuUnit::fromDouble(0.35))
          .isOk());
  auto second = admission.admit(2, zoo::kMobileNetV1, TpuUnit::fromDouble(0.1));
  ASSERT_TRUE(second.isOk());
  EXPECT_EQ(second->allocation.shares[0].tpuId, "tpu-1");
}

TEST_F(AdmissionTest, CoResidentModelsWithinBudgetShareOneTpu) {
  buildPool(2);
  AdmissionController admission(pool_, zoo_, {});
  ASSERT_TRUE(
      admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.2)).isOk());
  auto second = admission.admit(2, zoo::kUNetV2, TpuUnit::fromDouble(0.3));
  ASSERT_TRUE(second.isOk());
  EXPECT_EQ(second->allocation.shares[0].tpuId, "tpu-0");
  ASSERT_EQ(second->loads.size(), 1u);
  // The co-compiled composite holds both models, existing resident first.
  EXPECT_EQ(second->loads[0].composite,
            (std::vector<std::string>{zoo::kMobileNetV1, zoo::kUNetV2}));
}

TEST_F(AdmissionTest, PaperExampleThreePods06UnitsWithWp) {
  // §4.3's worked example: three 0.6-unit pods fit on two TPUs with
  // workload partitioning. Algorithm 1 partitions only when no single TPU
  // can host the request, so pods 1 and 2 take whole shares and pod 3
  // splits 0.4 / 0.2 across the residuals.
  buildPool(2);
  AdmissionController admission(pool_, zoo_, {});
  TpuUnit units = TpuUnit::fromDouble(0.6);

  auto pod1 = admission.admit(1, zoo::kMobileNetV1, units);
  ASSERT_TRUE(pod1.isOk());
  ASSERT_EQ(pod1->allocation.shares.size(), 1u);
  EXPECT_EQ(pod1->allocation.shares[0].tpuId, "tpu-0");

  auto pod2 = admission.admit(2, zoo::kMobileNetV1, units);
  ASSERT_TRUE(pod2.isOk());
  ASSERT_EQ(pod2->allocation.shares.size(), 1u);
  EXPECT_EQ(pod2->allocation.shares[0].tpuId, "tpu-1");

  auto pod3 = admission.admit(3, zoo::kMobileNetV1, units);
  ASSERT_TRUE(pod3.isOk());
  ASSERT_EQ(pod3->allocation.shares.size(), 2u);
  EXPECT_EQ(pod3->allocation.shares[0].tpuId, "tpu-0");
  EXPECT_EQ(pod3->allocation.shares[0].units.milli(), 400);
  EXPECT_EQ(pod3->allocation.shares[1].tpuId, "tpu-1");
  EXPECT_EQ(pod3->allocation.shares[1].units.milli(), 200);

  // 1.8 units packed onto two TPU Services (instead of three dedicated).
  EXPECT_EQ(pool_.find("tpu-0")->currentLoad(), TpuUnit::full());
  EXPECT_EQ(pool_.find("tpu-1")->currentLoad().milli(), 800);
  EXPECT_EQ(admission.partitionedCount(), 1u);
}

TEST_F(AdmissionTest, WithoutWpThreePods06NeedThreeTpus) {
  buildPool(3);
  AdmissionConfig config;
  config.enableWorkloadPartitioning = false;
  AdmissionController admission(pool_, zoo_, config);
  TpuUnit units = TpuUnit::fromDouble(0.6);
  for (std::uint64_t pod = 1; pod <= 3; ++pod) {
    auto result = admission.admit(pod, zoo::kMobileNetV1, units);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result->allocation.shares.size(), 1u);
  }
  EXPECT_EQ(pool_.usedTpuCount(), 3u);
}

TEST_F(AdmissionTest, BodyPixOver1UnitNeedsWp) {
  buildPool(2);
  TpuUnit units = TpuUnit::fromDouble(1.2);
  {
    AdmissionConfig config;
    config.enableWorkloadPartitioning = false;
    AdmissionController admission(pool_, zoo_, config);
    auto result = admission.admit(1, zoo::kBodyPixMobileNetV1, units);
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  {
    AdmissionController admission(pool_, zoo_, {});
    auto result = admission.admit(1, zoo::kBodyPixMobileNetV1, units);
    ASSERT_TRUE(result.isOk());
    ASSERT_EQ(result->allocation.shares.size(), 2u);
    EXPECT_EQ(result->allocation.totalUnits().milli(), 1200);
  }
}

TEST_F(AdmissionTest, RejectionLeavesNoResidue) {
  buildPool(1);
  AdmissionController admission(pool_, zoo_, {});
  ASSERT_TRUE(
      admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.8)).isOk());
  // 0.5 more cannot fit anywhere (only 0.2 free in the whole pool).
  auto rejected = admission.admit(2, zoo::kMobileNetV1, TpuUnit::fromDouble(0.5));
  ASSERT_FALSE(rejected.isOk());
  EXPECT_EQ(pool_.find("tpu-0")->currentLoad().milli(), 800);
  EXPECT_EQ(pool_.find("tpu-0")->refCount(zoo::kMobileNetV1), 1);
  EXPECT_EQ(admission.rejectedCount(), 1u);
}

TEST_F(AdmissionTest, WpSkipsTpusWhereModelCannotReside) {
  buildPool(2);
  AdmissionController admission(pool_, zoo_, {});
  // tpu-0 is dominated by SSD (6.2 MB) with 0.9 load free... but MobileNet
  // V1 cannot fit its memory; partitioned UNet can only use tpu-1.
  ASSERT_TRUE(
      admission.admit(1, zoo::kSsdMobileNetV2, TpuUnit::fromDouble(0.1))
          .isOk());
  auto result = admission.admit(2, zoo::kMobileNetV1, TpuUnit::fromDouble(0.9));
  ASSERT_TRUE(result.isOk());
  ASSERT_EQ(result->allocation.shares.size(), 1u);
  EXPECT_EQ(result->allocation.shares[0].tpuId, "tpu-1");
}

TEST_F(AdmissionTest, ReleaseReturnsUnitsAndDropsRefs) {
  buildPool(1);
  AdmissionController admission(pool_, zoo_, {});
  auto result = admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.7));
  ASSERT_TRUE(result.isOk());
  ASSERT_TRUE(admission.release(result->allocation).isOk());
  EXPECT_TRUE(pool_.find("tpu-0")->currentLoad().isZero());
  EXPECT_FALSE(pool_.find("tpu-0")->hasModel(zoo::kMobileNetV1));
  // Released capacity is immediately reusable.
  EXPECT_TRUE(
      admission.admit(2, zoo::kUNetV2, TpuUnit::fromDouble(1.0)).isOk());
}

TEST_F(AdmissionTest, ReleaseToleratesRemovedTpu) {
  buildPool(2);
  AdmissionController admission(pool_, zoo_, {});
  auto result = admission.admit(1, zoo::kBodyPixMobileNetV1,
                                TpuUnit::fromDouble(1.2));
  ASSERT_TRUE(result.isOk());
  ASSERT_TRUE(pool_.removeTpu("tpu-0").isOk());
  EXPECT_TRUE(admission.release(result->allocation).isOk());
  EXPECT_TRUE(pool_.find("tpu-1")->currentLoad().isZero());
}

TEST_F(AdmissionTest, OversizedModelSchedulesAlone) {
  buildPool(1);
  AdmissionController admission(pool_, zoo_, {});
  // ResNet-50 (25 MB) exceeds the parameter memory entirely; it may only
  // run on an otherwise-empty TPU (partial caching).
  auto alone = admission.admit(1, zoo::kResNet50, TpuUnit::fromDouble(0.3));
  ASSERT_TRUE(alone.isOk());
  // Nothing else may join that TPU now.
  auto second = admission.admit(2, zoo::kMobileNetV1, TpuUnit::fromDouble(0.1));
  EXPECT_FALSE(second.isOk());
}

TEST_F(AdmissionTest, OversizedModelRejectedOnOccupiedTpu) {
  buildPool(1);
  AdmissionController admission(pool_, zoo_, {});
  ASSERT_TRUE(
      admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.1)).isOk());
  EXPECT_FALSE(
      admission.admit(2, zoo::kResNet50, TpuUnit::fromDouble(0.3)).isOk());
}

TEST_F(AdmissionTest, NoCoCompileMeansOneDistinctModelPerTpu) {
  buildPool(2);
  AdmissionConfig config;
  config.enableCoCompile = false;
  AdmissionController admission(pool_, zoo_, config);
  // Same model can still time-share one TPU...
  ASSERT_TRUE(
      admission.admit(1, zoo::kMobileNetV1, TpuUnit::fromDouble(0.3)).isOk());
  auto same = admission.admit(2, zoo::kMobileNetV1, TpuUnit::fromDouble(0.3));
  ASSERT_TRUE(same.isOk());
  EXPECT_EQ(same->allocation.shares[0].tpuId, "tpu-0");
  // ...but a different model must take a fresh TPU even though 4.2 + 2.5
  // would fit the memory budget.
  auto other = admission.admit(3, zoo::kUNetV2, TpuUnit::fromDouble(0.2));
  ASSERT_TRUE(other.isOk());
  EXPECT_EQ(other->allocation.shares[0].tpuId, "tpu-1");
}

TEST_F(AdmissionTest, UnknownModelRejected) {
  buildPool(1);
  AdmissionController admission(pool_, zoo_, {});
  EXPECT_EQ(admission.admit(1, "bogus", TpuUnit::fromDouble(0.1))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(
      admission.admit(2, zoo::kMobileNetV1, TpuUnit::zero()).isOk());
}

TEST_F(AdmissionTest, CapacityCoralPie17CamerasOn6Tpus) {
  // §6.2's headline: 17 cameras at 0.35 units on 6 TPUs (2.8x the baseline).
  buildPool(6);
  AdmissionController admission(pool_, zoo_, {});
  int admitted = 0;
  for (std::uint64_t pod = 1; pod <= 64; ++pod) {
    if (!admission
             .admit(pod, zoo::kSsdMobileNetV2, TpuUnit::fromDouble(0.35))
             .isOk()) {
      break;
    }
    ++admitted;
  }
  EXPECT_EQ(admitted, 17);
}

TEST_F(AdmissionTest, CapacityWithoutWpIs12) {
  buildPool(6);
  AdmissionConfig config;
  config.enableWorkloadPartitioning = false;
  AdmissionController admission(pool_, zoo_, config);
  int admitted = 0;
  for (std::uint64_t pod = 1; pod <= 64; ++pod) {
    if (!admission
             .admit(pod, zoo::kSsdMobileNetV2, TpuUnit::fromDouble(0.35))
             .isOk()) {
      break;
    }
    ++admitted;
  }
  EXPECT_EQ(admitted, 12);  // 2 per TPU
}

TEST_F(AdmissionTest, CapacityBodyPix5CamerasOn6TpusWithWp) {
  buildPool(6);
  AdmissionController admission(pool_, zoo_, {});
  int admitted = 0;
  for (std::uint64_t pod = 1; pod <= 16; ++pod) {
    if (!admission
             .admit(pod, zoo::kBodyPixMobileNetV1, TpuUnit::fromDouble(1.2))
             .isOk()) {
      break;
    }
    ++admitted;
  }
  EXPECT_EQ(admitted, 5);  // floor(6 / 1.2)
}

// ---- Randomized invariants ------------------------------------------------

struct RandomScenario {
  std::uint64_t seed;
  bool workloadPartitioning;
  bool coCompile;
};

class AdmissionPropertyTest : public ::testing::TestWithParam<RandomScenario> {
};

TEST_P(AdmissionPropertyTest, InvariantsHoldUnderChurn) {
  const RandomScenario scenario = GetParam();
  ModelRegistry zoo = zoo::standardZoo();
  TpuPool pool;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
  }
  AdmissionConfig config;
  config.enableWorkloadPartitioning = scenario.workloadPartitioning;
  config.enableCoCompile = scenario.coCompile;
  AdmissionController admission(pool, zoo, config);

  const std::vector<std::string> models = {
      zoo::kMobileNetV1, zoo::kMobileNetV2, zoo::kUNetV2,
      zoo::kSsdMobileNetV2, zoo::kBodyPixMobileNetV1};
  Pcg32 rng(scenario.seed);
  std::vector<Allocation> live;
  std::uint64_t nextPod = 1;

  for (int step = 0; step < 600; ++step) {
    bool doRelease = !live.empty() && rng.bernoulli(0.4);
    if (doRelease) {
      std::size_t idx = rng.nextBounded(static_cast<std::uint32_t>(live.size()));
      ASSERT_TRUE(admission.release(live[idx]).isOk());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const std::string& model = models[rng.nextBounded(
          static_cast<std::uint32_t>(models.size()))];
      TpuUnit units = TpuUnit::fromMilli(50 + rng.nextBounded(1200));
      auto result = admission.admit(nextPod++, model, units);
      if (result.isOk()) {
        // Shares must sum exactly to the request and target distinct TPUs.
        EXPECT_EQ(result->allocation.totalUnits(), units);
        std::set<std::string> distinct;
        for (const auto& share : result->allocation.shares) {
          EXPECT_TRUE(share.units.isPositive());
          distinct.insert(share.tpuId);
        }
        EXPECT_EQ(distinct.size(), result->allocation.shares.size());
        if (!scenario.workloadPartitioning) {
          EXPECT_EQ(result->allocation.shares.size(), 1u);
        }
        live.push_back(result->allocation);
      }
    }

    // Pool invariants after every step.
    for (const TpuState& tpu : pool.tpus()) {
      // TPU Units Rule: never oversubscribed.
      EXPECT_LE(tpu.currentLoad(), TpuUnit::full()) << tpu.id();
      EXPECT_GE(tpu.currentLoad(), TpuUnit::zero()) << tpu.id();
      // Model Size Rule over live models (co-compile configurations), with
      // the documented oversized-model exception (alone on its TPU).
      if (scenario.coCompile) {
        double used = tpu.usedParamMb(zoo);
        if (used > 6.9) {
          EXPECT_EQ(tpu.liveModelCount(), 1u) << tpu.id();
        }
      } else {
        EXPECT_LE(tpu.liveModelCount(), 1u) << tpu.id();
      }
    }
    // Conservation: pool load equals the sum of live allocations.
    TpuUnit liveTotal;
    for (const auto& allocation : live) liveTotal += allocation.totalUnits();
    EXPECT_EQ(pool.totalLoad(), liveTotal);
  }

  // Draining everything returns the pool to zero.
  for (const auto& allocation : live) {
    EXPECT_TRUE(admission.release(allocation).isOk());
  }
  EXPECT_TRUE(pool.totalLoad().isZero());
  EXPECT_EQ(pool.usedTpuCount(), 0u);
}

// gtest names these cases by dumping each param's 16 bytes, padding
// included. A static array is zero-initialized, padding too, so the names
// come out the same in every build; stack temporaries left stack garbage in
// the padding.
constexpr RandomScenario kChurnScenarios[] = {
    {1, true, true},  {2, true, false}, {3, false, true},
    {4, false, false}, {5, true, true}, {6, true, true}};

INSTANTIATE_TEST_SUITE_P(Churn, AdmissionPropertyTest,
                         ::testing::ValuesIn(kChurnScenarios));

}  // namespace
}  // namespace microedge
