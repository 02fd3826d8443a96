// src/sweep: grid enumeration, seed derivation, the runner's determinism
// contract (merged bytes = f(grid, point function) for any thread count),
// and the InternScope isolation that makes a worker's run bit-identical to
// a solo run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "sweep/drivers.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "util/intern.hpp"
#include "util/strings.hpp"

namespace microedge {
namespace {

SweepGrid testGrid() {
  return SweepGrid::cartesian(
      "unit",
      {SweepGrid::Axis{"a", {JsonValue(1), JsonValue(2), JsonValue(3)}},
       SweepGrid::Axis{"b", {JsonValue("x"), JsonValue("y")}}},
      /*baseSeed=*/42);
}

// Deterministic synthetic point function: cheap, pure in (values, seed).
JsonValue syntheticPoint(const SweepPoint& p) {
  JsonValue r = JsonValue::object();
  r.set("a", p.getInt("a", -1));
  r.set("b", p.getString("b", "?"));
  r.set("seed_lo", static_cast<std::int64_t>(p.seed & 0xffff));
  return r;
}

// TempDir() is shared across test runs; claiming a path removes any stale
// file a previous run left behind.
std::string tempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "sweep_" + name;
  std::remove(path.c_str());
  return path;
}

// ---------------------------------------------------------------- grid --

TEST(SweepGridTest, CartesianEnumerationRowMajorLastAxisFastest) {
  SweepGrid grid = testGrid();
  ASSERT_EQ(grid.pointCount(), 6u);
  // Order: (1,x) (1,y) (2,x) (2,y) (3,x) (3,y).
  std::vector<std::pair<std::int64_t, std::string>> expect = {
      {1, "x"}, {1, "y"}, {2, "x"}, {2, "y"}, {3, "x"}, {3, "y"}};
  for (std::size_t i = 0; i < grid.pointCount(); ++i) {
    SweepPoint p = grid.point(i);
    EXPECT_EQ(p.index, i);
    EXPECT_EQ(p.getInt("a", -1), expect[i].first) << i;
    EXPECT_EQ(p.getString("b", "?"), expect[i].second) << i;
    ASSERT_EQ(p.coords.size(), 2u);
    EXPECT_EQ(p.coords[0], i / 2);
    EXPECT_EQ(p.coords[1], i % 2);
  }
}

TEST(SweepGridTest, ExplicitPointsKeepListOrder) {
  JsonValue p0 = JsonValue::object();
  p0.set("label", "first");
  JsonValue p1 = JsonValue::object();
  p1.set("label", "second");
  SweepGrid grid =
      SweepGrid::explicitPoints("variants", {p0, p1}, /*baseSeed=*/9);
  ASSERT_EQ(grid.pointCount(), 2u);
  EXPECT_EQ(grid.point(0).getString("label", ""), "first");
  EXPECT_EQ(grid.point(1).getString("label", ""), "second");
  // Explicit points are addressed by list position.
  EXPECT_EQ(grid.point(1).coords, (std::vector<std::size_t>{1}));
}

TEST(SweepGridTest, FingerprintSeparatesGrids) {
  SweepGrid a = testGrid();
  SweepGrid b = SweepGrid::cartesian(
      "unit",
      {SweepGrid::Axis{"a", {JsonValue(1), JsonValue(2), JsonValue(3)}},
       SweepGrid::Axis{"b", {JsonValue("x"), JsonValue("y")}}},
      /*baseSeed=*/43);  // only the base seed differs
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), testGrid().fingerprint());
}

TEST(SweepGridTest, SeedDerivationIsCoordinatePure) {
  // Same coords + base -> same seed; any coordinate or base change -> a
  // different seed. Nothing about threads or order can enter.
  EXPECT_EQ(deriveSweepSeed(7, {1, 2}), deriveSweepSeed(7, {1, 2}));
  EXPECT_NE(deriveSweepSeed(7, {1, 2}), deriveSweepSeed(8, {1, 2}));
  EXPECT_NE(deriveSweepSeed(7, {1, 2}), deriveSweepSeed(7, {2, 1}));
  EXPECT_NE(deriveSweepSeed(7, {1, 2}), deriveSweepSeed(7, {1, 2, 0}));

  SweepGrid grid = testGrid();
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < grid.pointCount(); ++i) {
    seeds.insert(grid.point(i).seed);
  }
  EXPECT_EQ(seeds.size(), grid.pointCount());  // all distinct
}

// -------------------------------------------------------------- runner --

TEST(SweepRunnerTest, RunsEveryPointExactlyOnce) {
  std::vector<JsonValue> values;
  for (int k = 0; k < 64; ++k) values.emplace_back(k);
  SweepGrid grid =
      SweepGrid::cartesian("once", {SweepGrid::Axis{"k", std::move(values)}});
  for (unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> calls(grid.pointCount());
    SweepPointFn counting = [&](const SweepPoint& p) {
      calls[p.index].fetch_add(1);
      return JsonValue(p.getInt("k", -1));
    };
    SweepOptions options;
    options.threads = threads;
    auto report = runSweep(grid, counting, options);
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_EQ(report->totalPoints, grid.pointCount()) << threads << " threads";
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].load(), 1) << "point " << i << ", " << threads
                                    << " threads";
    }
  }
}

TEST(SweepRunnerTest, SerialRunProducesCanonicalMerge) {
  SweepOptions options;  // threads=1, in-memory
  auto report = runSweep(testGrid(), syntheticPoint, options);
  ASSERT_TRUE(report.isOk());
  EXPECT_EQ(report->totalPoints, 6u);

  const JsonValue& merged = report->merged;
  EXPECT_EQ(merged.getString("grid", ""), "unit");
  EXPECT_EQ(merged.getString("fingerprint", ""), testGrid().fingerprint());
  const auto& points = merged.find("points")->items();
  ASSERT_EQ(points.size(), 6u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].getInt("i", -1), static_cast<std::int64_t>(i));
    SweepPoint p = testGrid().point(i);
    EXPECT_EQ(points[i].find("config")->dump(), p.values.dump());
    EXPECT_EQ(points[i].find("seed")->asUint(), p.seed);
    EXPECT_EQ(points[i].find("result")->getInt("a", -2), p.getInt("a", -1));
  }
}

TEST(SweepRunnerTest, EmptyGridIsAnError) {
  SweepGrid empty;
  SweepOptions options;
  EXPECT_FALSE(runSweep(empty, syntheticPoint, options).isOk());
}

TEST(SweepRunnerTest, MergedBytesIdenticalAcrossThreads) {
  // The subsystem's central property: every thread count writes the same
  // bytes.
  std::string reference;
  for (unsigned threads : {1u, 2u, 8u}) {
    std::string out = tempPath(strCat("det_t", threads, ".json"));
    SweepOptions options;
    options.threads = threads;
    options.outPath = out;
    auto report = runSweep(testGrid(), syntheticPoint, options);
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    std::ifstream in(out, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << out;
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

// --------------------------------------------------------- intern scope --

TEST(InternScopeTest, FreshDomainPerScopeAndRestoration) {
  // Names interned outside must be invisible inside a scope, and handle
  // assignment inside a fresh scope must start from zero — that is what
  // makes a sweep point's handles independent of everything around it.
  ModelId outer = internModel("scope-test-outer");
  {
    InternScope scope;
    EXPECT_FALSE(lookupModel("scope-test-outer").valid());
    ModelId a = internModel("scope-test-a");
    ModelId b = internModel("scope-test-b");
    EXPECT_EQ(b.value, a.value + 1);  // dense, scope-local assignment
    {
      InternScope nested;
      EXPECT_FALSE(lookupModel("scope-test-a").valid());
      ModelId n = internModel("scope-test-a");
      EXPECT_EQ(n.value, a.value);  // same sequence -> same handle
    }
    // Nested scope popped: the middle domain is intact.
    EXPECT_EQ(lookupModel("scope-test-a").value, a.value);
  }
  EXPECT_EQ(lookupModel("scope-test-outer").value, outer.value);
  EXPECT_FALSE(lookupModel("scope-test-a").valid());
}

TEST(InternScopeTest, ScopedRunsAssignIdenticalHandles) {
  // Two runs of the same intern sequence in fresh scopes get identical
  // handles regardless of what ran in between.
  std::vector<std::uint32_t> first, second;
  {
    InternScope scope;
    for (const char* n : {"m0", "m1", "m2"}) {
      first.push_back(internModel(n).value);
    }
  }
  internModel("drift-the-default-domain");
  {
    InternScope scope;
    for (const char* n : {"m0", "m1", "m2"}) {
      second.push_back(internModel(n).value);
    }
  }
  EXPECT_EQ(first, second);
}

// ------------------------------------------------- worker == solo run  --

TEST(SweepSoloEquivalenceTest, WorkerResultsMatchSoloRuns) {
  // Run the real smoke grid (scalability driver, full Testbed + Simulator
  // per point) across 8 workers, then replay every point alone on this
  // thread and demand identical result bytes. This is the satellite-2
  // acceptance check: no hidden global state leaks between runs.
  SweepGrid grid = smokeSweepGrid();
  auto driver = findSweepDriver(grid.driver());
  ASSERT_TRUE(driver.isOk());

  SweepOptions options;
  options.threads = 8;
  auto report = runSweep(grid, *driver, options);
  ASSERT_TRUE(report.isOk()) << report.status().toString();
  const auto& points = report->merged.find("points")->items();
  ASSERT_EQ(points.size(), grid.pointCount());

  for (std::size_t i = 0; i < grid.pointCount(); ++i) {
    InternScope scope;  // what the runner provides around each point
    JsonValue solo = (*driver)(grid.point(i));
    EXPECT_EQ(points[i].find("result")->dump(), solo.dump()) << "point " << i;
  }
}

TEST(SweepDriversTest, BuiltinGridsResolve) {
  for (const char* name : {"fig5", "fig6", "smoke"}) {
    auto grid = builtinSweepGrid(name);
    ASSERT_TRUE(grid.isOk()) << name;
    EXPECT_GT(grid->pointCount(), 0u) << name;
    EXPECT_TRUE(findSweepDriver(grid->driver()).isOk()) << name;
  }
  EXPECT_FALSE(builtinSweepGrid("fig9").isOk());
  EXPECT_FALSE(findSweepDriver("nope").isOk());
}

// A bad grid value is a grid-authoring error: the point reports it in-band,
// the way an unknown mode does, instead of crashing, hanging or simulating
// something other than what it reports.
JsonValue runDriverPoint(const std::string& driver, JsonValue values) {
  auto fn = findSweepDriver(driver);
  EXPECT_TRUE(fn.isOk()) << driver;
  SweepPoint point;
  point.values = std::move(values);
  return (*fn)(point);
}

TEST(SweepDriversTest, ZeroTpusPerNodeIsAnInBandError) {
  JsonValue values = JsonValue::object();
  values.set("tpus", 2);
  values.set("tpus_per_node", 0);
  JsonValue result = runDriverPoint("scalability", std::move(values));
  EXPECT_NE(result.find("error"), nullptr) << result.dump();
}

TEST(SweepDriversTest, TpusNotAMultipleOfTpusPerNodeIsAnInBandError) {
  // 3 TPUs at 2 per node would be built as one 2-TPU node.
  JsonValue values = JsonValue::object();
  values.set("tpus", 3);
  values.set("tpus_per_node", 2);
  values.set("horizon_s", 0.5);
  values.set("camera_upper_bound", 4);
  JsonValue result = runDriverPoint("scalability", std::move(values));
  EXPECT_NE(result.find("error"), nullptr) << result.dump();
}

TEST(SweepDriversTest, UnknownModelIsAnInBandError) {
  JsonValue values = JsonValue::object();
  values.set("model", "no-such-model");
  values.set("horizon_s", 0.5);
  values.set("camera_upper_bound", 4);
  JsonValue result = runDriverPoint("scalability", std::move(values));
  EXPECT_NE(result.find("error"), nullptr) << result.dump();
}

TEST(SweepDriversTest, ZeroTraceWindowIsAnInBandError) {
  JsonValue values = JsonValue::object();
  values.set("horizon_min", 0.1);
  values.set("window_s", 0.0);
  JsonValue result = runDriverPoint("trace", std::move(values));
  EXPECT_NE(result.find("error"), nullptr) << result.dump();
}

// Every out-of-range numeric field a driver reads, one point per value, on
// top of a base point that runs fast when valid.
struct BadField {
  const char* field;
  JsonValue value;
};

void expectEachIsAnInBandError(const std::string& driver,
                               const JsonValue& base,
                               const std::vector<BadField>& table) {
  for (const BadField& bad : table) {
    JsonValue values = base;
    values.set(bad.field, bad.value);
    JsonValue result = runDriverPoint(driver, std::move(values));
    EXPECT_NE(result.find("error"), nullptr)
        << driver << " " << bad.field << "=" << bad.value.dump() << ": "
        << result.dump();
  }
}

TEST(SweepDriversTest, ScalabilityOutOfRangeNumbersAreInBandErrors) {
  JsonValue base = JsonValue::object();
  base.set("tpus", 2);
  base.set("horizon_s", 0.5);
  base.set("camera_upper_bound", 4);
  expectEachIsAnInBandError(
      "scalability", base,
      {{"horizon_s", JsonValue(-5.0)}, {"horizon_s", JsonValue(0.0)},
       {"fps", JsonValue(-15.0)}, {"fps", JsonValue(0.0)},
       {"camera_upper_bound", JsonValue(0)},
       {"camera_upper_bound", JsonValue(-4)}, {"tpus", JsonValue(-2)}});
}

TEST(SweepDriversTest, TraceOutOfRangeNumbersAreInBandErrors) {
  JsonValue base = JsonValue::object();
  base.set("horizon_min", 0.1);
  expectEachIsAnInBandError(
      "trace", base,
      {{"horizon_min", JsonValue(-1.0)}, {"horizon_min", JsonValue(0.0)},
       {"capacity_units", JsonValue(-3.0)},
       {"capacity_units", JsonValue(0.0)}});
}

TEST(SweepDriversTest, ScenarioOutOfRangeNumbersAreInBandErrors) {
  // shards is checked before its unsigned cast: -1 must not become
  // 4,294,967,295 shards. Past ShardedClusterConfig::kMaxShards the
  // cluster's setup refuses it: 100000 shards would allocate 10^10
  // mailboxes.
  JsonValue base = JsonValue::object();
  base.set("racks", 1);
  base.set("vrpis_per_rack", 1);
  base.set("streams_per_vrpi", 1);
  expectEachIsAnInBandError(
      "scenario", base,
      {{"shards", JsonValue(-1)}, {"shards", JsonValue(0)},
       {"shards", JsonValue(65)}, {"shards", JsonValue(100000)},
       {"racks", JsonValue(0)}, {"racks", JsonValue(-2)},
       {"vrpis_per_rack", JsonValue(0)}, {"streams_per_vrpi", JsonValue(-3)},
       {"streams_per_vrpi", JsonValue(0)}, {"slo_ms", JsonValue(-5.0)},
       {"slo_ms", JsonValue(0.0)}, {"fps", JsonValue(0.0)},
       {"peak", JsonValue(-2.0)}});
}

TEST(SweepDriversTest, HugeIntegerFieldIsRejectedWithItsSign) {
  // 1e30, and 2^64 (an integer past INT64_MAX, which only a double holds),
  // saturate: the range check names INT64_MAX, not the negative number a
  // bare double-to-int64 cast gives on x86.
  JsonValue e30 = JsonValue::object();
  e30.set("tpus", 1e30);
  JsonValue twoTo64 = JsonValue::object();
  twoTo64.set("tpus", JsonValue(18446744073709551615.0));
  for (const JsonValue& values : {e30, twoTo64}) {
    JsonValue result = runDriverPoint("scalability", values);
    const JsonValue* error = result.find("error");
    ASSERT_NE(error, nullptr) << result.dump();
    EXPECT_NE(error->asString().find(
                  "tpus must be an integer >= 1, got 9223372036854775807"),
              std::string::npos)
        << error->asString();
  }
}

// A duration past SimDuration's range (int64 ns, about 292 years) is an
// in-band error that names the range; it must not wrap into some other
// duration first and run that.
void expectDurationOutOfRange(const std::string& driver, JsonValue values,
                              const char* field, double value) {
  values.set(field, value);
  JsonValue result = runDriverPoint(driver, std::move(values));
  const JsonValue* error = result.find("error");
  ASSERT_NE(error, nullptr) << driver << " " << field << ": " << result.dump();
  EXPECT_NE(error->asString().find(strCat(field, " must be between 1 ns and")),
            std::string::npos)
      << error->asString();
}

TEST(SweepDriversTest, ScalabilityHorizonPastSimDurationIsAnInBandError) {
  // Wrapped, 1e10 s reports two cameras at zero utilization meeting their
  // SLO.
  JsonValue base = JsonValue::object();
  base.set("tpus", 2);
  base.set("camera_upper_bound", 4);
  expectDurationOutOfRange("scalability", std::move(base), "horizon_s", 1e10);
}

TEST(SweepDriversTest, TraceHorizonPastSimDurationIsAnInBandError) {
  // Wrapped, 2e8 minutes runs as a zero-length trace ("attempted": 0).
  expectDurationOutOfRange("trace", JsonValue::object(), "horizon_min", 2e8);
}

TEST(SweepDriversTest, TraceWindowPastSimDurationIsAnInBandError) {
  JsonValue base = JsonValue::object();
  base.set("horizon_min", 0.1);
  expectDurationOutOfRange("trace", std::move(base), "window_s", 1e10);
}

// An fps whose frame period is under 1 ns or past SimDuration is an
// in-band error naming fps, checked before anything converts it: not a
// point that simulated no cameras, nor a setup error about TPU units.
void expectFpsOutOfRange(const std::string& driver, const JsonValue& base) {
  for (double fps : {1e-300, 1e300}) {
    JsonValue values = base;
    values.set("fps", fps);
    JsonValue result = runDriverPoint(driver, std::move(values));
    const JsonValue* error = result.find("error");
    ASSERT_NE(error, nullptr) << driver << " fps=" << fps << ": "
                              << result.dump();
    EXPECT_NE(error->asString().find("fps must give a frame period"),
              std::string::npos)
        << error->asString();
  }
}

TEST(SweepDriversTest, ScalabilityFpsOutsideAFramePeriodIsAnInBandError) {
  JsonValue base = JsonValue::object();
  base.set("tpus", 2);
  base.set("horizon_s", 0.5);
  base.set("camera_upper_bound", 4);
  expectFpsOutOfRange("scalability", base);
}

TEST(SweepDriversTest, ScenarioFpsOutsideAFramePeriodIsAnInBandError) {
  JsonValue base = JsonValue::object();
  base.set("racks", 1);
  base.set("vrpis_per_rack", 1);
  base.set("streams_per_vrpi", 1);
  expectFpsOutOfRange("scenario", base);
}

TEST(SweepDriversTest, ScenarioSloPastSimDurationIsAnInBandError) {
  JsonValue base = JsonValue::object();
  base.set("racks", 1);
  base.set("vrpis_per_rack", 1);
  base.set("streams_per_vrpi", 1);
  expectDurationOutOfRange("scenario", std::move(base), "slo_ms", 1e13);
}

}  // namespace
}  // namespace microedge
