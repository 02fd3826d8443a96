// Scenario runs through the sharded harness (DESIGN.md §15): the combined
// city workload — diurnal swing + flash crowd + camera churn + a correlated
// rack failure — must produce byte-identical metrics at shard counts
// {1, 2, 8} and across reruns; churn cameras must drain cleanly (every
// in-flight frame reaches exactly one terminal outcome, under chaos too);
// and the per-phase windowed metrics series must cover the horizon.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "sweep/drivers.hpp"
#include "testbed/sharded_cluster.hpp"

namespace microedge {
namespace {

ShardedClusterConfig scenarioConfig(unsigned shards, ScenarioSpec spec,
                                    bool controls) {
  ShardedClusterConfig config;
  config.shards = shards;
  config.racks = 8;
  config.tRpisPerRack = 1;
  config.vRpisPerRack = 2;
  config.tpusPerTRpi = 1;
  config.streamsPerVRpi = 1;
  config.fps = 10.0;
  config.scenario.enabled = true;
  config.scenario.spec = std::move(spec);
  config.scenario.sloDeadline = milliseconds(60);
  if (controls) {
    EXPECT_TRUE(
        applyControlPolicy("degrade", milliseconds(60), &config).isOk());
  }
  return config;
}

// Every frame a stream ever submitted reached exactly one terminal outcome
// (nothing stuck in flight, nothing double-counted).
void expectFullyDrained(const ShardedCluster::StreamStats& stats) {
  std::uint64_t terminal = 0;
  for (std::size_t o = 1; o < kFrameOutcomeCount; ++o) {
    terminal += stats.outcomes[o];
  }
  EXPECT_EQ(stats.outcomes[static_cast<std::size_t>(FrameOutcome::kInFlight)],
            0u)
      << stats.camera;
  EXPECT_EQ(terminal, stats.submitted) << stats.camera;
}

TEST(ScenarioCluster, CityByteIdenticalAcrossShardsAndReruns) {
  StatusOr<ScenarioSpec> spec = builtinScenario("city");
  ASSERT_TRUE(spec.isOk());
  std::string reference;
  std::uint64_t referenceDigest = 0;
  // Two shards=1 iterations: the first pair is the rerun witness, the rest
  // the shard-count witness — all four dumps must be the same bytes.
  for (unsigned shards : {1u, 1u, 2u, 8u}) {
    ShardedCluster cluster(scenarioConfig(shards, *spec, /*controls=*/true));
    ASSERT_TRUE(cluster.setupStatus().isOk())
        << cluster.setupStatus().toString();
    ASSERT_TRUE(cluster.runScenario().isOk()) << "shards=" << shards;
    EXPECT_GT(cluster.totalCompleted(), 100u) << "shards=" << shards;

    const std::string metrics = cluster.metricsJson();
    if (reference.empty()) {
      reference = metrics;
      referenceDigest = cluster.digest();
      continue;
    }
    EXPECT_EQ(metrics, reference) << "shards=" << shards;
    EXPECT_EQ(cluster.digest(), referenceDigest) << "shards=" << shards;
  }
}

TEST(ScenarioCluster, ChurnCamerasDrainToExactlyOneTerminalOutcome) {
  StatusOr<ScenarioSpec> spec = builtinScenario("churn");
  ASSERT_TRUE(spec.isOk());
  ShardedCluster cluster(scenarioConfig(1, *spec, /*controls=*/true));
  ASSERT_TRUE(cluster.setupStatus().isOk());
  ASSERT_TRUE(cluster.runScenario().isOk());

  std::size_t joiners = 0, leavers = 0;
  for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
    ShardedCluster::StreamStats stats = cluster.streamStats(i);
    if (!stats.churn) continue;
    ++joiners;
    EXPECT_TRUE(stats.joined) << stats.camera;
    EXPECT_GT(stats.completed, 0u) << stats.camera;
    if (stats.departed) {
      ++leavers;
      // The drain contract: stopped at leave time, in-flight frames run to
      // terminal outcomes during the grace window, units credited back.
      expectFullyDrained(stats);
    }
  }
  // The builtin spec: a 4-camera join/leave wave plus 2 stay-resident joins.
  EXPECT_EQ(joiners, 6u);
  EXPECT_EQ(leavers, 4u);
}

TEST(ScenarioCluster, ChurnUnderChaosStaysConservative) {
  // The city scenario's correlated failure kills a tRPi while churn cameras
  // are live: recovery evicts what it cannot re-place, and every stream —
  // churned, evicted or healthy — must still account for every frame once
  // the run ends (frames in flight at the horizon belong to still-running
  // residents only). Deterministically, at two shard counts.
  StatusOr<ScenarioSpec> spec = builtinScenario("city");
  ASSERT_TRUE(spec.isOk());
  std::string reference;
  for (unsigned shards : {1u, 2u}) {
    ShardedCluster cluster(scenarioConfig(shards, *spec, /*controls=*/true));
    ASSERT_TRUE(cluster.setupStatus().isOk());
    ASSERT_TRUE(cluster.runScenario().isOk());

    // Departed cameras are already fully drained at the horizon — the leave
    // path stops them and their grace window ran inside the scenario.
    for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
      ShardedCluster::StreamStats stats = cluster.streamStats(i);
      if (stats.departed) expectFullyDrained(stats);
    }
    const std::string metrics = cluster.metricsJson();
    if (reference.empty()) {
      reference = metrics;
    } else {
      EXPECT_EQ(metrics, reference) << "shards=" << shards;
    }

    // Residents may legitimately have frames in flight at the horizon cut;
    // after stopping them and draining, EVERY stream — churned, evicted by
    // the correlated failure, or healthy — accounts for every frame exactly
    // once.
    cluster.stopStreams();
    cluster.run(seconds(1));
    for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
      expectFullyDrained(cluster.streamStats(i));
    }
  }
}

// A mid-run churn join is an admission: when its Load fails on a hung TPU
// Service the join is refused (the units go back) and the camera never
// submits a frame.
TEST(ScenarioCluster, ChurnJoinWhoseLoadFailsIsRefused) {
  ScenarioSpec spec;
  spec.name = "hung-join";
  spec.horizonS = 3.0;
  spec.churn.push_back(ChurnSpec{0, /*joinS=*/1.0, /*leaveS=*/0.0, 1});
  ShardedClusterConfig config;
  config.racks = 1;
  config.streamsPerVRpi = 0;
  config.scenario.enabled = true;
  config.scenario.spec = spec;
  ShardedCluster cluster(config);
  ASSERT_TRUE(cluster.setupStatus().isOk())
      << cluster.setupStatus().toString();
  FaultPlan plan;
  plan.events.push_back(FaultEvent{milliseconds(500), FaultKind::kTpuHang,
                                   "tpu-00", seconds(2), 0.0});
  cluster.armFaults(plan);
  ASSERT_TRUE(cluster.runScenario().isOk());
  ASSERT_EQ(cluster.streamCount(), 1u);
  const ShardedCluster::StreamStats stats = cluster.streamStats(0);
  EXPECT_TRUE(stats.churn);
  EXPECT_FALSE(stats.joined);
  EXPECT_EQ(stats.submitted, 0u);
}

// A churn camera whose host vRPi dies before its join time stays down: the
// dead host's streams count as evicted, so the pending join neither admits
// it (holding rack units for the rest of the run) nor counts it as active.
TEST(ScenarioCluster, ChurnCameraOnADeadHostNeverJoins) {
  StatusOr<ScenarioSpec> spec = builtinScenario("churn");
  ASSERT_TRUE(spec.isOk());
  ShardedClusterConfig config;
  config.racks = 2;
  config.scenario.enabled = true;
  config.scenario.spec = *spec;
  ShardedCluster cluster(config);
  ASSERT_TRUE(cluster.setupStatus().isOk())
      << cluster.setupStatus().toString();
  // r0-vrpi-06 hosts a tenant-0 churn camera that joins at 3.5 s.
  std::size_t doomed = cluster.streamCount();
  for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
    const ShardedCluster::StreamStats stats = cluster.streamStats(i);
    if (stats.churn && stats.camera == "r0-vrpi-06") doomed = i;
  }
  ASSERT_LT(doomed, cluster.streamCount());
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{seconds(1), FaultKind::kNodeDeath, "r0-vrpi-06", {}, 0.0});
  cluster.armFaults(plan);
  ASSERT_TRUE(cluster.runScenario().isOk());

  const ShardedCluster::StreamStats stats = cluster.streamStats(doomed);
  EXPECT_FALSE(stats.joined);
  EXPECT_EQ(stats.submitted, 0u);
  // Active at the "joined" and "drained" boundaries (7 s and 10 s, after
  // the wave left): every joined camera off the dead host that stayed.
  std::uint64_t alive = 0;
  for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
    const ShardedCluster::StreamStats s = cluster.streamStats(i);
    if (s.camera != "r0-vrpi-06" && s.joined && !s.departed) ++alive;
  }
  const std::vector<ShardedCluster::PhaseStats>& phases = cluster.phaseStats();
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[1].activeStreams, alive);
  EXPECT_EQ(phases[2].activeStreams, alive);
}

TEST(ScenarioCluster, PhaseSeriesCoversHorizonWithSaneMetrics) {
  StatusOr<ScenarioSpec> spec = builtinScenario("flashcrowd");
  ASSERT_TRUE(spec.isOk());
  ShardedCluster cluster(scenarioConfig(1, *spec, /*controls=*/true));
  ASSERT_TRUE(cluster.setupStatus().isOk());
  ASSERT_TRUE(cluster.runScenario().isOk());

  const std::vector<ShardedCluster::PhaseStats>& phases = cluster.phaseStats();
  ASSERT_EQ(phases.size(), 5u);
  EXPECT_EQ(phases.front().name, "baseline");
  EXPECT_EQ(phases.back().name, "recovery");
  EXPECT_EQ(phases.back().end, secondsF(spec->horizonS));
  std::uint64_t submitted = 0, completed = 0, deadlineMet = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (p > 0) {
      EXPECT_GT(phases[p].end, phases[p - 1].end);
    }
    EXPECT_GE(phases[p].attainment, 0.0);
    EXPECT_LE(phases[p].attainment, 1.0);
    EXPECT_GT(phases[p].activeStreams, 0u);
    submitted += phases[p].submitted;
    completed += phases[p].completed;
    deadlineMet += phases[p].deadlineMet;
  }
  // The phase deltas tile the run exactly.
  EXPECT_EQ(submitted, cluster.totalSubmitted());
  EXPECT_EQ(completed, cluster.totalCompleted());
  EXPECT_EQ(deadlineMet, cluster.totalDeadlineMet());
  // The flash crowd actually moved the workload: peak-phase submissions
  // outpace the same-length recovery tail at nominal rate.
  EXPECT_GT(phases[2].submitted, phases[4].submitted);

  // Scenario runs are single-shot.
  EXPECT_FALSE(cluster.runScenario().isOk());
}

TEST(ScenarioCluster, SweepExposesScenarioAxes) {
  // Every builtin load shape x every control-policy bundle, resolvable by
  // the sweep runner's driver registry.
  SweepGrid grid = scenarioSweepGrid();
  EXPECT_EQ(grid.pointCount(), 15u);  // 5 scenarios x 3 policies
  EXPECT_EQ(grid.driver(), "scenario");
  EXPECT_TRUE(findSweepDriver("scenario").isOk());
}

}  // namespace
}  // namespace microedge
