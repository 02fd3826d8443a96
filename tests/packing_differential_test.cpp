// Differential property test for the incremental packing indexes.
//
// The indexed scan (segment tree / load buckets, AdmissionConfig::indexedScan
// = true) must place *identically* to the retained naive linear scan
// (packingScanOrder) for every packing strategy, with and without workload
// partitioning. Two mirrored pools are driven through the same random
// admit/release sequence by one controller each; after every operation the
// statuses, the produced allocations (TPU ids, units, order) and the full
// pool states must agree, and the indexed pool's internal indexes must be
// consistent with its TPU states.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "models/zoo.hpp"
#include "util/rng.hpp"

namespace microedge {
namespace {

struct DiffCase {
  PackingStrategy strategy;
  bool partitioning;
};

std::string caseName(const ::testing::TestParamInfo<DiffCase>& info) {
  std::string name{toString(info.param.strategy)};
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + (info.param.partitioning ? "_partitioned" : "_single");
}

class PackingDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

void expectSameAllocation(const Allocation& indexed, const Allocation& naive) {
  ASSERT_EQ(indexed.shares.size(), naive.shares.size());
  EXPECT_EQ(indexed.model, naive.model);
  for (std::size_t i = 0; i < indexed.shares.size(); ++i) {
    EXPECT_EQ(indexed.shares[i].tpuId, naive.shares[i].tpuId);
    EXPECT_EQ(indexed.shares[i].units.milli(), naive.shares[i].units.milli());
  }
}

void expectSamePools(const TpuPool& indexed, const TpuPool& naive) {
  ASSERT_EQ(indexed.tpus().size(), naive.tpus().size());
  for (std::size_t i = 0; i < indexed.tpus().size(); ++i) {
    const TpuState& a = indexed.tpus()[i];
    const TpuState& b = naive.tpus()[i];
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.currentLoad().milli(), b.currentLoad().milli());
    EXPECT_EQ(a.liveModelCount(), b.liveModelCount());
    EXPECT_EQ(a.residentOrder(), b.residentOrder());
  }
}

TEST_P(PackingDifferentialTest, RandomSequencesPlaceIdentically) {
  const DiffCase& param = GetParam();
  ModelRegistry zoo = zoo::standardZoo();
  const char* models[] = {zoo::kMobileNetV1, zoo::kMobileNetV2,
                          zoo::kSsdMobileNetV2, zoo::kEfficientNetLite0};

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TpuPool indexedPool;
    TpuPool naivePool;
    const int tpus = 24;
    for (int i = 0; i < tpus; ++i) {
      std::string id = "tpu-" + std::to_string(i);
      ASSERT_TRUE(indexedPool.addTpu(id, 6.9).isOk());
      ASSERT_TRUE(naivePool.addTpu(id, 6.9).isOk());
    }

    AdmissionConfig config;
    config.strategy = param.strategy;
    config.enableWorkloadPartitioning = param.partitioning;
    config.indexedScan = true;
    AdmissionController indexed(indexedPool, zoo, config);
    config.indexedScan = false;
    AdmissionController naive(naivePool, zoo, config);

    Pcg32 rng(seed);
    std::vector<std::pair<Allocation, Allocation>> live;
    std::uint64_t uid = 0;

    for (int step = 0; step < 400; ++step) {
      const bool doRelease = !live.empty() && rng.bernoulli(0.4);
      if (doRelease) {
        std::size_t victim =
            rng.nextBounded(static_cast<std::uint32_t>(live.size()));
        Status si = indexed.release(live[victim].first);
        Status sn = naive.release(live[victim].second);
        EXPECT_EQ(si.isOk(), sn.isOk()) << "seed " << seed << " step " << step;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const char* model = models[rng.nextBounded(4)];
        // 50..1495 milli: exercises both single-TPU placement and (when
        // partitioning is on) multi-TPU splits.
        TpuUnit units = TpuUnit::fromMilli(50 + 5 * rng.nextBounded(290));
        auto ri = indexed.admit(++uid, model, units);
        auto rn = naive.admit(uid, model, units);
        ASSERT_EQ(ri.isOk(), rn.isOk())
            << "seed " << seed << " step " << step << " model " << model
            << " units " << units.milli();
        if (ri.isOk()) {
          expectSameAllocation(ri->allocation, rn->allocation);
          EXPECT_EQ(ri->loads.size(), rn->loads.size());
          live.emplace_back(std::move(ri->allocation),
                            std::move(rn->allocation));
        }
      }
      ASSERT_TRUE(indexedPool.indexConsistent())
          << "seed " << seed << " step " << step;
      expectSamePools(indexedPool, naivePool);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    EXPECT_EQ(indexed.admittedCount(), naive.admittedCount());
    EXPECT_EQ(indexed.rejectedCount(), naive.rejectedCount());
    EXPECT_EQ(indexed.partitionedCount(), naive.partitionedCount());
  }
}

// A static array is zero-initialized, padding too, so the byte dump gtest
// prints for each param is the same in every build.
constexpr DiffCase kDiffCases[] = {
    {PackingStrategy::kFirstFit, false}, {PackingStrategy::kFirstFit, true},
    {PackingStrategy::kNextFit, false},  {PackingStrategy::kNextFit, true},
    {PackingStrategy::kBestFit, false},  {PackingStrategy::kBestFit, true},
    {PackingStrategy::kWorstFit, false}, {PackingStrategy::kWorstFit, true}};

INSTANTIATE_TEST_SUITE_P(AllStrategies, PackingDifferentialTest,
                         ::testing::ValuesIn(kDiffCases), caseName);

}  // namespace
}  // namespace microedge
