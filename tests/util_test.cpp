// Unit tests for the util substrate: time, status, strings, rng, histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace microedge {
namespace {

// ---- time -------------------------------------------------------------

TEST(TimeTest, ConstructorsAndConversions) {
  EXPECT_EQ(milliseconds(1).count(), 1000000);
  EXPECT_EQ(seconds(2), milliseconds(2000));
  EXPECT_EQ(minutes(1), seconds(60));
  EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(15)), 15.0);
  EXPECT_DOUBLE_EQ(toSeconds(seconds(3)), 3.0);
  EXPECT_NEAR(toMilliseconds(millisecondsF(23.3)), 23.3, 1e-9);
}

TEST(TimeTest, FramePeriod) {
  EXPECT_NEAR(toMilliseconds(framePeriod(15.0)), 66.6667, 1e-3);
  EXPECT_NEAR(toMilliseconds(framePeriod(10.0)), 100.0, 1e-6);
}

TEST(TimeTest, SimTimeArithmetic) {
  SimTime t = kSimEpoch + seconds(5);
  EXPECT_DOUBLE_EQ(toSecondsSinceEpoch(t), 5.0);
  EXPECT_EQ(t - kSimEpoch, seconds(5));
}

TEST(TimeTest, ToStringPicksUnits) {
  EXPECT_EQ(toString(nanoseconds(500)), "500ns");
  EXPECT_EQ(toString(microseconds(12)), "12.00us");
  EXPECT_EQ(toString(milliseconds(8)), "8.00ms");
  EXPECT_EQ(toString(seconds(3)), "3.000s");
}

// ---- status -----------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.isOk());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.toString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = resourceExhausted("no TPUs left");
  EXPECT_FALSE(s.isOk());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.toString().find("no TPUs left"), std::string::npos);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.isOk());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.valueOr(0), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = notFound("nope");
  EXPECT_FALSE(v.isOk());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.valueOr(-1), -1);
}

TEST(StatusOrTest, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.isOk());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return invalidArgument("bad"); };
  auto wrapper = [&]() -> Status {
    ME_RETURN_IF_ERROR(fails());
    return Status::ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInvalidArgument);
}

// ---- strings ----------------------------------------------------------

TEST(StringsTest, StrCat) {
  EXPECT_EQ(strCat("a", 1, "-", 2.5), "a1-2.5");
}

TEST(StringsTest, FmtDouble) {
  EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
  EXPECT_EQ(fmtDouble(2.0, 0), "2");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

TEST(StringsTest, SplitAndTrim) {
  auto lines = splitLines("a\nb\n\nc");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_TRUE(startsWith("- item", "- "));
  EXPECT_FALSE(startsWith("-", "- "));
}

// ---- rng --------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.nextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.nextBounded(17), 17u);
  }
  EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Pcg32 rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, PoissonMeanRoughlyCorrect) {
  Pcg32 rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, GaussianMoments) {
  Pcg32 rng(17);
  const int n = 40000;
  double sum = 0.0, sumSq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.gaussian(10.0, 2.0);
    sum += v;
    sumSq += v * v;
  }
  double mean = sum / n;
  double var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Pcg32 parent(21);
  Pcg32 child = parent.split();
  // Child and parent should not emit identical sequences.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, ShuffleKeepsElements) {
  Pcg32 rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ---- histogram / summary ------------------------------------------------

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(SummaryTest, Quantiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 0.01);
}

TEST(SummaryTest, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
}

TEST(SummaryTest, Merge) {
  Summary a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(DurationSummaryTest, ReportsMilliseconds) {
  DurationSummary s;
  s.add(milliseconds(10));
  s.add(milliseconds(30));
  EXPECT_DOUBLE_EQ(s.meanMs(), 20.0);
  EXPECT_DOUBLE_EQ(s.maxMs(), 30.0);
}

}  // namespace
}  // namespace microedge
