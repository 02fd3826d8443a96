// Weighted round-robin schedulers: proportionality, smoothness (the WFQ
// spread property) and the burst variant's contrasting behaviour. Includes
// parameterized property sweeps over weight mixes.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "dataplane/wrr.hpp"
#include "util/strings.hpp"

namespace microedge {
namespace {

std::vector<WrrTarget> makeTargets(const std::vector<std::uint32_t>& weights) {
  std::vector<WrrTarget> out;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out.push_back(WrrTarget{strCat("t", i), weights[i]});
  }
  return out;
}

TEST(SmoothWrrTest, RejectsBadTargets) {
  SmoothWrr wrr;
  EXPECT_FALSE(wrr.setTargets({}).isOk());
  EXPECT_FALSE(wrr.setTargets({WrrTarget{"", 1}}).isOk());
  EXPECT_FALSE(wrr.setTargets({WrrTarget{"a", 0}}).isOk());
}

TEST(SmoothWrrTest, SingleTargetAlwaysPicked) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets({WrrTarget{"only", 350}}).isOk());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(wrr.pick(), "only");
}

TEST(SmoothWrrTest, TwoToOneInterleavesSmoothly) {
  // The paper's §4.3 example: 0.4 vs 0.2 units -> 66% / 33% split. Smooth
  // WRR must not emit the heavy target more than twice in a row.
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets({WrrTarget{"a", 400}, WrrTarget{"b", 200}}).isOk());
  int maxRun = 0, run = 0;
  std::string prev;
  for (int i = 0; i < 300; ++i) {
    std::string pick = wrr.pick();
    run = (pick == prev) ? run + 1 : 1;
    maxRun = std::max(maxRun, run);
    prev = pick;
  }
  EXPECT_EQ(wrr.pickCount("a"), 200u);
  EXPECT_EQ(wrr.pickCount("b"), 100u);
  EXPECT_LE(maxRun, 2);
}

TEST(BurstWrrTest, SameProportionsWorstSpread) {
  BurstWrr wrr;
  ASSERT_TRUE(wrr.setTargets({WrrTarget{"a", 400}, WrrTarget{"b", 200}}).isOk());
  // gcd reduction -> bursts of 2 and 1.
  std::vector<std::string> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(wrr.pick());
  EXPECT_EQ(picks,
            (std::vector<std::string>{"a", "a", "b", "a", "a", "b"}));
}

// Property sweep: exact proportionality over one full period, and the
// smoothness bound (over any window of n picks, each target is picked
// within +-1 of its proportional share).
class WrrPropertyTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(WrrPropertyTest, ExactProportionsOverOnePeriod) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets(makeTargets(GetParam())).isOk());
  std::uint64_t period = wrr.totalWeight();
  std::map<std::string, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < period; ++i) counts[wrr.pick()]++;
  for (std::size_t i = 0; i < wrr.targets().size(); ++i) {
    EXPECT_EQ(counts[wrr.targets()[i].id], wrr.targets()[i].weight)
        << "target " << i;
  }
}

TEST_P(WrrPropertyTest, SmoothnessBoundOverSlidingWindows) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets(makeTargets(GetParam())).isOk());
  std::uint64_t period = wrr.totalWeight();
  std::vector<std::string> picks;
  for (std::uint64_t i = 0; i < period * 3; ++i) picks.push_back(wrr.pick());

  // For each target and each window of length w, the count must stay within
  // +-1 of w * weight / total (smooth WRR's defining spread property).
  for (const WrrTarget& target : wrr.targets()) {
    double share =
        static_cast<double>(target.weight) / static_cast<double>(period);
    for (std::size_t w : {period / 2 + 1, period}) {
      if (w == 0 || w > picks.size()) continue;
      std::size_t count = 0;
      for (std::size_t i = 0; i < w; ++i) {
        if (picks[i] == target.id) ++count;
      }
      for (std::size_t start = 0;; ++start) {
        double expected = share * static_cast<double>(w);
        // Prefix deviation of smooth WRR is < 1; a sliding window is the
        // difference of two prefixes, so its deviation stays < 2.
        EXPECT_LE(std::abs(static_cast<double>(count) - expected), 2.0)
            << "target " << target.id << " window [" << start << ", "
            << start + w << ")";
        if (start + w >= picks.size()) break;
        count -= picks[start] == target.id ? 1 : 0;
        count += picks[start + w] == target.id ? 1 : 0;
      }
    }
  }
}

TEST_P(WrrPropertyTest, BurstMatchesProportionsOverOnePeriod) {
  BurstWrr wrr;
  auto targets = makeTargets(GetParam());
  ASSERT_TRUE(wrr.setTargets(targets).isOk());
  std::uint64_t total = 0;
  std::uint32_t g = 0;
  for (auto& t : targets) g = std::gcd(g, t.weight);
  for (auto& t : targets) total += t.weight / g;
  std::map<std::string, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < total; ++i) counts[wrr.pick()]++;
  for (auto& t : targets) {
    EXPECT_EQ(counts[t.id], t.weight / g) << t.id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightMixes, WrrPropertyTest,
    ::testing::Values(std::vector<std::uint32_t>{1, 1},
                      std::vector<std::uint32_t>{400, 200},
                      std::vector<std::uint32_t>{350, 350, 300},
                      std::vector<std::uint32_t>{5, 1},
                      std::vector<std::uint32_t>{7, 3, 2},
                      std::vector<std::uint32_t>{650, 350},
                      std::vector<std::uint32_t>{1000, 200, 150, 100}));

// Batched picking must be *identical* to single picks — pickBatch is a loop
// over pickIndex, never a different scheduler. Tested in both regimes: the
// cached cycle and the linear fallback for degenerate weight sets whose
// period exceeds the cap.

TEST_P(WrrPropertyTest, BatchMatchesSinglePicks) {
  SmoothWrr single, batched;
  ASSERT_TRUE(single.setTargets(makeTargets(GetParam())).isOk());
  ASSERT_TRUE(batched.setTargets(makeTargets(GetParam())).isOk());

  // Cover several periods with a mix of batch sizes, including k spanning
  // the period boundary and k == 0.
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> want;
  std::uint64_t period = single.totalWeight();
  std::vector<std::size_t> batchSizes = {
      1, 3, 0, static_cast<std::size_t>(period),
      static_cast<std::size_t>(period) + 2, 7};
  for (std::size_t k : batchSizes) {
    batched.pickBatch(k, got);
    for (std::size_t j = 0; j < k; ++j) {
      want.push_back(static_cast<std::uint32_t>(single.pickIndex()));
    }
  }
  EXPECT_EQ(got, want);
  for (const WrrTarget& t : single.targets()) {
    EXPECT_EQ(batched.pickCount(t.id), single.pickCount(t.id)) << t.id;
  }
}

TEST_P(WrrPropertyTest, InterleavedBatchAndSingleMatchesAllSingles) {
  SmoothWrr mixed, reference;
  ASSERT_TRUE(mixed.setTargets(makeTargets(GetParam())).isOk());
  ASSERT_TRUE(reference.setTargets(makeTargets(GetParam())).isOk());

  std::vector<std::uint32_t> got;
  for (int round = 0; round < 5; ++round) {
    got.push_back(static_cast<std::uint32_t>(mixed.pickIndex()));
    mixed.pickBatch(static_cast<std::size_t>(round) + 2, got);
  }
  std::vector<std::uint32_t> want;
  for (std::size_t j = 0; j < got.size(); ++j) {
    want.push_back(static_cast<std::uint32_t>(reference.pickIndex()));
  }
  EXPECT_EQ(got, want);
}

TEST(SmoothWrrBatchTest, CycleCacheActiveForTypicalWeights) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets({WrrTarget{"a", 400}, WrrTarget{"b", 200}}).isOk());
  EXPECT_EQ(wrr.cyclePeriod(), 0u);  // deferred until the first pick
  wrr.pickIndex();
  EXPECT_EQ(wrr.cyclePeriod(), 3u);  // 400:200 reduces to 2:1, period 3
}

TEST(SmoothWrrBatchTest, DegeneratePeriodFallsBackAndStillMatches) {
  // Coprime weights above the cap: reduced period 4099 + 2 > kMaxCyclePeriod,
  // so the cache is skipped — and the batch must still equal single picks.
  std::vector<WrrTarget> targets = {WrrTarget{"big", 4099},
                                    WrrTarget{"small", 2}};
  ASSERT_GT(4099u + 2u, SmoothWrr::kMaxCyclePeriod);
  SmoothWrr single, batched;
  ASSERT_TRUE(single.setTargets(targets).isOk());
  ASSERT_TRUE(batched.setTargets(targets).isOk());
  batched.pickIndex();
  EXPECT_EQ(batched.cyclePeriod(), 0u);  // fallback regime

  std::vector<std::uint32_t> got;
  batched.pickBatch(5000, got);
  single.pickIndex();
  for (std::size_t j = 0; j < 5000; ++j) {
    EXPECT_EQ(got[j], static_cast<std::uint32_t>(single.pickIndex())) << j;
  }
}

TEST(SmoothWrrBatchTest, SetTargetsResetsTheSchedule) {
  SmoothWrr wrr;
  ASSERT_TRUE(wrr.setTargets({WrrTarget{"a", 2}, WrrTarget{"b", 1}}).isOk());
  std::vector<std::uint32_t> first;
  wrr.pickBatch(5, first);
  ASSERT_TRUE(wrr.setTargets({WrrTarget{"a", 2}, WrrTarget{"b", 1}}).isOk());
  std::vector<std::uint32_t> second;
  wrr.pickBatch(5, second);
  EXPECT_EQ(first, second);  // reconfigure restarts from the schedule start
}

}  // namespace
}  // namespace microedge
