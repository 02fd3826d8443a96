// Differential property test for the incremental packing indexes.
//
// Admission walks its candidates through TpuPool::scan (segment tree / load
// buckets). Everything else in admission is one code path, so the property
// that keeps placement identical to the naive linear scan is the scan order
// itself: after every step of a random admit/release sequence, for every
// packing strategy with and without workload partitioning, the positions
// TpuPool::scan yields must equal the naive reference order
// (packing_scan_order.hpp) filtered by residual >= the minimum, at several
// minimum residuals (1 milli-unit, the step's request, a random value) and
// next-fit cursors; and the pool's internal indexes must stay consistent
// with its TPU states.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/admission.hpp"
#include "models/zoo.hpp"
#include "packing_scan_order.hpp"
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

std::vector<std::size_t> indexedOrder(const TpuPool& pool,
                                      PackingStrategy strategy,
                                      TpuUnit minResidual,
                                      std::size_t cursor) {
  std::vector<std::size_t> order;
  auto scan = pool.scan(strategy, minResidual, cursor);
  for (std::uint32_t pos = scan.next(); pos != TpuPool::npos;
       pos = scan.next()) {
    order.push_back(pos);
  }
  return order;
}

std::vector<std::size_t> naiveOrder(const TpuPool& pool,
                                    PackingStrategy strategy,
                                    TpuUnit minResidual, std::size_t cursor) {
  std::vector<std::size_t> order;
  for (std::size_t pos : packingScanOrder(strategy, pool, cursor)) {
    if (pool.tpus()[pos].freeUnits() >= minResidual) order.push_back(pos);
  }
  return order;
}

TEST_P(PackingDifferentialTest, RandomSequencesPlaceIdentically) {
  const DiffCase& param = GetParam();
  ModelRegistry zoo = zoo::standardZoo();
  const char* models[] = {zoo::kMobileNetV1, zoo::kMobileNetV2,
                          zoo::kSsdMobileNetV2, zoo::kEfficientNetLite0};

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TpuPool pool;
    const int tpus = 24;
    for (int i = 0; i < tpus; ++i) {
      ASSERT_TRUE(pool.addTpu("tpu-" + std::to_string(i), 6.9).isOk());
    }
    AdmissionConfig config;
    config.strategy = param.strategy;
    config.enableWorkloadPartitioning = param.partitioning;
    AdmissionController admission(pool, zoo, config);

    Pcg32 rng(seed);
    std::vector<Allocation> live;
    std::uint64_t uid = 0;
    std::size_t admitted = 0;

    for (int step = 0; step < 400; ++step) {
      TpuUnit request;
      if (!live.empty() && rng.bernoulli(0.4)) {
        std::size_t victim =
            rng.nextBounded(static_cast<std::uint32_t>(live.size()));
        request = live[victim].totalUnits();
        EXPECT_TRUE(admission.release(live[victim]).isOk())
            << "seed " << seed << " step " << step;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const char* model = models[rng.nextBounded(4)];
        // 50..1495 milli: exercises both single-TPU placement and (when
        // partitioning is on) multi-TPU splits, and requests no single TPU
        // can hold.
        request = TpuUnit::fromMilli(50 + 5 * rng.nextBounded(290));
        auto result = admission.admit(++uid, model, request);
        if (result.isOk()) {
          ++admitted;
          live.push_back(std::move(result->allocation));
        }
      }
      ASSERT_TRUE(pool.indexConsistent())
          << "seed " << seed << " step " << step;

      const TpuUnit minima[] = {
          TpuUnit::fromMilli(1), request,
          TpuUnit::fromMilli(1 + rng.nextBounded(1000))};
      const std::size_t cursors[] = {
          0, rng.nextBounded(static_cast<std::uint32_t>(tpus)),
          static_cast<std::size_t>(tpus), static_cast<std::size_t>(tpus) + 1};
      for (TpuUnit minResidual : minima) {
        for (std::size_t cursor : cursors) {
          EXPECT_EQ(indexedOrder(pool, param.strategy, minResidual, cursor),
                    naiveOrder(pool, param.strategy, minResidual, cursor))
              << "seed " << seed << " step " << step << " min "
              << minResidual.milli() << " cursor " << cursor;
        }
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    // The sequence reached a mix of loaded and free TPUs (not vacuous).
    EXPECT_GT(admitted, 50u) << "seed " << seed;
    EXPECT_EQ(admission.admittedCount(), admitted);
    EXPECT_GT(admission.rejectedCount(), 0u) << "seed " << seed;
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
