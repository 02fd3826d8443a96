// Closed-loop overload control (DESIGN.md §14): the admission ledger's
// charge/credit arithmetic and progress rule, the per-stream degradation
// ladder's hysteresis, the SLO-triggered repack supervisor's windowing, and
// the end-to-end contracts — admission-on below capacity is outcome-identical
// to admission-off, an overloaded admission-on client never lets an admitted
// frame miss its deadline, the metrics export carries the new counters
// with features off reading all-zero, and forced repacks under live traffic
// lose no frame at any shard count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/admission_ledger.hpp"
#include "core/overload_supervisor.hpp"
#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"
#include "testbed/degradation.hpp"
#include "testbed/sharded_cluster.hpp"

namespace microedge {
namespace {

// --- AdmissionLedger ---------------------------------------------------------

TEST(AdmissionLedgerTest, ChargesUpToCapacityThenRejects) {
  AdmissionLedger ledger;
  const AdmissionLedger::TargetCapacity targets[] = {{internTpu("al-a"), 500}};
  ledger.reconfigure(targets, 1);
  const std::uint32_t entry = ledger.entryFor(internTpu("al-a"));
  ASSERT_NE(entry, AdmissionLedger::kNoEntry);
  EXPECT_EQ(ledger.entryCapacity(entry), 500);

  EXPECT_TRUE(ledger.tryCharge(entry, 200));
  EXPECT_TRUE(ledger.tryCharge(entry, 200));
  EXPECT_EQ(ledger.entryCharged(entry), 400);
  // 400 + 200 > 500: saturated, and the rejection has no side effects.
  EXPECT_FALSE(ledger.tryCharge(entry, 200));
  EXPECT_EQ(ledger.entryCharged(entry), 400);
  EXPECT_TRUE(ledger.tryCharge(entry, 100));  // exact fit admits
  EXPECT_EQ(ledger.entryCharged(entry), 500);

  ledger.credit(entry, 200);
  ledger.credit(entry, 200);
  ledger.credit(entry, 100);
  EXPECT_EQ(ledger.entryCharged(entry), 0);
  EXPECT_EQ(ledger.chargedMilli(), 0);
  EXPECT_EQ(ledger.acceptedCount(), 3u);
  EXPECT_EQ(ledger.rejectedCount(), 1u);
  EXPECT_EQ(ledger.creditedCount(), 3u);
}

TEST(AdmissionLedgerTest, ProgressRuleAdmitsOneOversizedFrame) {
  // A 50-milli share serving 75-milli frames must not starve: an entry with
  // zero outstanding charge always admits exactly one frame.
  AdmissionLedger ledger;
  const AdmissionLedger::TargetCapacity targets[] = {{internTpu("al-b"), 50}};
  ledger.reconfigure(targets, 1);
  const std::uint32_t entry = ledger.entryFor(internTpu("al-b"));
  ASSERT_NE(entry, AdmissionLedger::kNoEntry);

  EXPECT_TRUE(ledger.tryCharge(entry, 75));   // progress rule
  EXPECT_FALSE(ledger.tryCharge(entry, 75));  // second one waits
  ledger.credit(entry, 75);
  EXPECT_TRUE(ledger.tryCharge(entry, 75));  // and again after the credit
  ledger.credit(entry, 75);
  EXPECT_EQ(ledger.chargedMilli(), 0);
}

TEST(AdmissionLedgerTest, ReconfigurePreservesChargesAndDrainsZombies) {
  AdmissionLedger ledger;
  const TpuId a = internTpu("al-d");
  const TpuId b = internTpu("al-e");
  const AdmissionLedger::TargetCapacity both[] = {{a, 300}, {b, 300}};
  ledger.reconfigure(both, 2);
  const std::uint32_t entryA = ledger.entryFor(a);
  const std::uint32_t entryB = ledger.entryFor(b);
  ASSERT_TRUE(ledger.tryCharge(entryA, 100));
  ASSERT_TRUE(ledger.tryCharge(entryB, 100));

  // A weight push drops target A: its entry survives at capacity zero (the
  // in-flight frame's index stays valid), B's capacity updates in place.
  const AdmissionLedger::TargetCapacity onlyB[] = {{b, 500}};
  ledger.reconfigure(onlyB, 1);
  EXPECT_EQ(ledger.entryFor(a), entryA);
  EXPECT_EQ(ledger.entryFor(b), entryB);
  EXPECT_EQ(ledger.entryCapacity(entryA), 0);
  EXPECT_EQ(ledger.entryCapacity(entryB), 500);
  EXPECT_EQ(ledger.entryCharged(entryA), 100);  // charge preserved

  // The zombie's charge drains through the normal credit path.
  ledger.credit(entryA, 100);
  ledger.credit(entryB, 100);
  EXPECT_EQ(ledger.chargedMilli(), 0);
  EXPECT_EQ(ledger.entryCount(), 2u);  // append-only: the entry lingers
}

// Conservation holds in the build people run: a credit the entry never
// charged aborts with its context instead of driving the charge negative.
TEST(AdmissionLedgerDeathTest, CreditWithoutChargeAborts) {
  AdmissionLedger ledger;
  const AdmissionLedger::TargetCapacity targets[] = {{internTpu("al-f"), 500}};
  ledger.reconfigure(targets, 1);
  const std::uint32_t entry = ledger.entryFor(internTpu("al-f"));
  ASSERT_TRUE(ledger.tryCharge(entry, 100));
  ledger.credit(entry, 100);
  EXPECT_DEATH(ledger.credit(entry, 100),
               "credit without charge \\(entry=0 tpu=al-f estimate=100 "
               "charged=0");
}

// --- RepackSupervisor --------------------------------------------------------

struct ScriptedSlo {
  RepackSupervisor::Sample current;
  int repacks = 0;

  RepackSupervisor makeSupervisor(RepackSupervisorConfig config) {
    config.enabled = true;
    return RepackSupervisor(
        config, [this] { return current; },
        [this] {
          ++repacks;
          Defragmenter::Report report;
          report.applied = true;
          return report;
        });
  }

  // Advances the cumulative counters by one window's worth of traffic.
  void window(std::uint64_t good, std::uint64_t total) {
    current.good += good;
    current.total += total;
  }
};

TEST(RepackSupervisorTest, TriggersAfterSustainedPressure) {
  ScriptedSlo slo;
  RepackSupervisorConfig config;
  config.attainmentThreshold = 0.9;
  config.sustainWindows = 3;
  config.cooldownWindows = 2;
  RepackSupervisor supervisor = slo.makeSupervisor(config);

  slo.window(100, 100);  // healthy
  EXPECT_FALSE(supervisor.onWindow());
  for (int i = 0; i < 2; ++i) {
    slo.window(50, 100);  // 0.5 < 0.9: pressured
    EXPECT_FALSE(supervisor.onWindow()) << "window " << i;
  }
  slo.window(50, 100);
  EXPECT_TRUE(supervisor.onWindow());  // third consecutive pressured window
  EXPECT_EQ(slo.repacks, 1);
  EXPECT_EQ(supervisor.repacksTriggered(), 1u);
  EXPECT_TRUE(supervisor.lastReport().applied);
  EXPECT_DOUBLE_EQ(supervisor.lastAttainment(), 0.5);
}

TEST(RepackSupervisorTest, CooldownHoldsOffRetrigger) {
  ScriptedSlo slo;
  RepackSupervisorConfig config;
  config.sustainWindows = 2;
  config.cooldownWindows = 3;
  RepackSupervisor supervisor = slo.makeSupervisor(config);

  // Sustained misery: a trigger costs sustain (2) + cooldown (3) windows,
  // so 12 windows yield exactly three — at windows 2, 7 and 12 — instead of
  // one every other window.
  int triggers = 0;
  for (int i = 0; i < 12; ++i) {
    slo.window(10, 100);
    if (supervisor.onWindow()) ++triggers;
  }
  EXPECT_EQ(triggers, 3);
  EXPECT_EQ(slo.repacks, 3);
}

TEST(RepackSupervisorTest, HealthyWindowResetsStreak) {
  ScriptedSlo slo;
  RepackSupervisorConfig config;
  config.sustainWindows = 2;
  RepackSupervisor supervisor = slo.makeSupervisor(config);

  slo.window(10, 100);
  EXPECT_FALSE(supervisor.onWindow());
  slo.window(100, 100);  // recovery resets the streak
  EXPECT_FALSE(supervisor.onWindow());
  slo.window(10, 100);
  EXPECT_FALSE(supervisor.onWindow());  // streak restarted at 1
  slo.window(10, 100);
  EXPECT_TRUE(supervisor.onWindow());
}

TEST(RepackSupervisorTest, QuietWindowsAreNeutral) {
  ScriptedSlo slo;
  RepackSupervisorConfig config;
  config.sustainWindows = 2;
  RepackSupervisor supervisor = slo.makeSupervisor(config);

  slo.window(10, 100);
  EXPECT_FALSE(supervisor.onWindow());
  // No traffic at all: neither pressured nor healthy, streak holds.
  EXPECT_FALSE(supervisor.onWindow());
  EXPECT_FALSE(supervisor.onWindow());
  slo.window(10, 100);
  EXPECT_TRUE(supervisor.onWindow());
  EXPECT_EQ(supervisor.pressuredWindows(), 2u);
}

TEST(RepackSupervisorTest, MaxRepacksCapsTriggers) {
  ScriptedSlo slo;
  RepackSupervisorConfig config;
  config.sustainWindows = 1;
  config.cooldownWindows = 1;
  config.maxRepacks = 1;
  RepackSupervisor supervisor = slo.makeSupervisor(config);
  int triggers = 0;
  for (int i = 0; i < 10; ++i) {
    slo.window(10, 100);
    if (supervisor.onWindow()) ++triggers;
  }
  EXPECT_EQ(triggers, 1);
  EXPECT_EQ(slo.repacks, 1);
}

// --- Data-plane fixture for degradation / differential tests -----------------

struct MiniCluster {
  ModelRegistry zoo;
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ClusterTopology topo;
  DataPlane dataPlane;

  static TopologySpec spec(int tpus) {
    TopologySpec s;
    s.vRpiCount = 1;
    s.tRpiCount = tpus;
    s.tpusPerTRpi = 1;
    return s;
  }

  explicit MiniCluster(int tpus = 1)
      : zoo(zoo::standardZoo()), topo(sharded, zoo, spec(tpus)),
        dataPlane(sharded, topo, zoo) {
    for (const auto& tpu : topo.tpus()) {
      LoadCommand load{tpu->id(), {zoo::kMobileNetV1}, {}};
      if (!dataPlane.executeLoad(load).isOk()) std::abort();
    }
    sim.run();
  }

  LbConfig allTpus(std::uint32_t weightMilli) {
    LbConfig lb;
    for (const auto& tpu : topo.tpus()) {
      lb.weights.push_back(LbWeight{tpu->handle(), weightMilli});
    }
    return lb;
  }

  std::unique_ptr<TpuClient> makeClient(SimDuration deadline, bool admission,
                                        std::uint32_t weightMilli = 1000) {
    TpuClient::Config config;
    config.clientNode = "vrpi-00";
    config.model = zoo::kMobileNetV1;
    config.frameDeadline = deadline;
    config.maxFailovers = 1;
    config.admission.enabled = admission;
    auto client = dataPlane.makeClient(std::move(config));
    EXPECT_TRUE(client->configureLb(allTpus(weightMilli)).isOk());
    return client;
  }
};

// --- StreamDegrader ----------------------------------------------------------

TEST(StreamDegraderTest, StepsDownUnderPressureAndBackUpWhenClean) {
  MiniCluster cluster;
  // Weight 100 with a 50 ms deadline: estimate = 4.5 ms / 50 ms = 90 milli,
  // so the ledger holds exactly one frame in flight (progress rule) and a
  // second back-to-back submission is rejected.
  auto client = cluster.makeClient(milliseconds(50), /*admission=*/true, 100);

  PeriodicTask task(cluster.sim, framePeriod(15.0), [] {});
  DegradationConfig config;
  config.enabled = true;
  config.ladder = {1.0, 0.75, 0.5};
  config.windowFrames = 10;
  config.stepDownPressure = 0.25;
  config.sustainWindows = 2;
  config.coolDownWindows = 3;
  StreamRateControl rate(task, framePeriod(15.0));
  StreamDegrader degrader(*client, rate, config);

  auto onDone = [&degrader](const FrameBreakdown&) { degrader.onFrame(); };
  // Pressured phase: pairs of back-to-back submissions — the second is
  // admission-rejected while the first is still charged, so every window
  // runs at pressure 0.5 >= 0.25.
  auto pressuredWindow = [&] {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(client->invoke(onDone).isOk());
      ASSERT_TRUE(client->invoke(onDone).isOk());  // rejected synchronously
      cluster.sim.run();                           // drain the admitted one
    }
  };
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), 0u);  // one pressured window is not sustained
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), 1u);
  EXPECT_EQ(degrader.stepDowns(), 1u);
  EXPECT_EQ(task.period(), SimDuration{framePeriod(15.0).count() * 4 / 3});

  // Two more sustained-pressure windows: down to the last rung, where the
  // controller must hold (never indexes past the ladder).
  pressuredWindow();
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), 2u);
  pressuredWindow();
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), 2u);  // bottom rung holds

  // Clean phase: one frame at a time, drained to completion — pressure 0.
  auto cleanWindow = [&] {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(client->invoke(onDone).isOk());
      cluster.sim.run();
    }
  };
  cleanWindow();
  cleanWindow();
  EXPECT_EQ(degrader.rung(), 2u);  // 2 clean windows < coolDownWindows
  cleanWindow();
  EXPECT_EQ(degrader.rung(), 1u);
  EXPECT_EQ(degrader.stepUps(), 1u);
  // Hysteresis: the cool-down streak resets after each step, so the next
  // rung takes another full coolDownWindows of clean traffic.
  cleanWindow();
  EXPECT_EQ(degrader.rung(), 1u);
  cleanWindow();
  cleanWindow();
  EXPECT_EQ(degrader.rung(), 0u);
  EXPECT_EQ(task.period(), framePeriod(15.0));
  EXPECT_EQ(client->admissionLedger().chargedMilli(), 0);
}

// --- Admission differential and overload contracts ---------------------------

// Below capacity the ledger must be invisible: a closed-loop stream (next
// frame submitted from the previous completion) holds one frame in flight,
// which the progress rule always admits — outcome totals match an
// admission-off twin frame for frame.
TEST(AdmissionDifferentialTest, BelowCapacityMatchesAdmissionOff) {
  auto runStream = [](bool admission) {
    MiniCluster cluster;
    auto client =
        cluster.makeClient(milliseconds(60), admission, 1000);
    std::uint64_t remaining = 500;
    std::vector<std::uint64_t> latencies;
    std::function<void()> pump = [&] {
      if (remaining == 0) return;
      --remaining;
      ASSERT_TRUE(client
                      ->invoke([&](const FrameBreakdown& b) {
                        latencies.push_back(
                            static_cast<std::uint64_t>(b.endToEnd().count()));
                        pump();
                      })
                      .isOk());
    };
    pump();
    cluster.sim.run();
    EXPECT_EQ(client->completedCount(), 500u);
    EXPECT_EQ(client->outcomeCount(FrameOutcome::kAdmissionRejected), 0u);
    if (admission) {
      EXPECT_EQ(client->admissionLedger().acceptedCount(), 500u);
      EXPECT_EQ(client->admissionLedger().creditedCount(), 500u);
      EXPECT_EQ(client->admissionLedger().rejectedCount(), 0u);
    }
    return latencies;
  };
  const auto withLedger = runStream(true);
  const auto without = runStream(false);
  // Frame-for-frame identical timing, not just equal totals.
  EXPECT_EQ(withLedger, without);
}

// The headline overload contract: at 2x offered load, an admission-on client
// rejects the excess up front and every admitted frame completes within its
// deadline — zero timeouts, zero sheds.
TEST(AdmissionOverloadTest, AdmittedFramesMissZeroDeadlines) {
  MiniCluster cluster;
  auto client = cluster.makeClient(milliseconds(60), /*admission=*/true, 1000);
  // One TPU serves mobilenet at 1/4.5 ms ~= 222 fps; submit at ~444 fps.
  PeriodicTask source(cluster.sim, framePeriod(444.0), [&] {
    (void)client->invoke([](const FrameBreakdown&) {});
  });
  source.start();
  cluster.sim.runFor(seconds(5));
  source.stop();
  cluster.sim.run();

  EXPECT_GT(client->outcomeCount(FrameOutcome::kAdmissionRejected), 0u);
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kTimedOut), 0u);
  EXPECT_EQ(client->outcomeCount(FrameOutcome::kShed), 0u);
  // Goodput: the device stayed saturated — ~222 fps completed for 5 s.
  EXPECT_GT(client->completedCount(), 1000u);
  EXPECT_EQ(client->admissionLedger().chargedMilli(), 0);
  EXPECT_EQ(client->admissionLedger().acceptedCount(),
            client->admissionLedger().creditedCount());
}

// --- Metrics export ----------------------------------------------------------

TEST(OverloadMetricsTest, ShardedClusterExportsOverloadCounters) {
  ShardedClusterConfig config;
  config.shards = 1;
  config.racks = 2;
  config.tRpisPerRack = 1;
  config.vRpisPerRack = 2;
  config.tpusPerTRpi = 1;
  config.fps = 15.0;
  config.frameDeadline = milliseconds(60);
  ShardedCluster cluster(config);
  ASSERT_TRUE(cluster.setupStatus().isOk());
  cluster.run(seconds(1));

  const std::string metrics = cluster.metricsJson();
  // New keys are present, in deterministic positions, and read zero with
  // admission and degradation off.
  EXPECT_NE(metrics.find("\"degradeDowns\": 0"), std::string::npos);
  EXPECT_NE(metrics.find("\"degradeUps\": 0"), std::string::npos);
  EXPECT_NE(metrics.find("\"totalAdmissionRejected\": 0"), std::string::npos);
  EXPECT_NE(metrics.find("\"totalDegradeDowns\": 0"), std::string::npos);
  EXPECT_NE(metrics.find("\"totalDegradeUps\": 0"), std::string::npos);
  // The outcomes array grew to the full lattice (7 states).
  const std::size_t outcomes = metrics.find("\"outcomes\": [");
  ASSERT_NE(outcomes, std::string::npos);
  const std::size_t close = metrics.find(']', outcomes);
  const std::string row = metrics.substr(outcomes, close - outcomes);
  EXPECT_EQ(static_cast<int>(std::count(row.begin(), row.end(), ',')),
            kFrameOutcomeCount - 1);
  EXPECT_EQ(cluster.outcomeTotal(FrameOutcome::kAdmissionRejected), 0u);
  EXPECT_EQ(cluster.totalDegradeDowns(), 0u);
  EXPECT_EQ(cluster.totalDegradeUps(), 0u);
}

// Degradation on a deliberately overloaded sharded cluster: deterministic
// for a fixed shard count (same seed, same step sequence) and strictly
// bounded by the ladder.
TEST(OverloadMetricsTest, ShardedDegradationIsDeterministicAndBounded) {
  auto run = [] {
    ShardedClusterConfig config;
    config.shards = 2;
    config.racks = 2;
    config.tRpisPerRack = 1;
    config.vRpisPerRack = 2;
    config.tpusPerTRpi = 1;
    // 4 streams x 60 fps of mobilenet against 2 TPUs (~444 fps capacity):
    // heavily oversubscribed, every stream must step down.
    config.fps = 60.0;
    config.frameDeadline = milliseconds(60);
    config.frameAdmission.enabled = true;
    config.degradation.enabled = true;
    config.degradation.windowFrames = 20;
    config.degradation.stepDownPressure = 0.25;
    ShardedCluster cluster(config);
    EXPECT_TRUE(cluster.setupStatus().isOk());
    cluster.run(seconds(4));
    return cluster.metricsJson();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"totalDegradeDowns\": 0"), std::string::npos)
      << "overloaded streams never stepped down:\n"
      << first;
}

// --- Repacking under live traffic --------------------------------------------

TEST(ShardedRepackTest, RepackFiresUnderLiveTrafficAndStreamsSurvive) {
  // Attainment can never reach 1.1: every window is pressured, so this
  // forces each rack's drain -> replan -> weight-push path to run repeatedly
  // under live traffic — the test is that nothing breaks, streams keep
  // completing and the run stays shard-count invariant, not that the
  // replan finds improvement.
  auto run = [](unsigned shards) {
    ShardedClusterConfig config;
    config.shards = shards;
    config.repack.enabled = true;
    config.repack.window = milliseconds(500);
    config.repack.attainmentThreshold = 1.1;
    config.repack.sustainWindows = 2;
    config.repack.cooldownWindows = 2;
    ShardedCluster cluster(config);
    EXPECT_TRUE(cluster.setupStatus().isOk())
        << cluster.setupStatus().toString();
    cluster.run(seconds(5));
    EXPECT_GE(cluster.totalRepacks(), 2u) << "shards=" << shards;

    // Repacks under live traffic lost nothing: streams keep completing after
    // the last one so far, and no frame ever reached a failure outcome.
    const std::uint64_t before = cluster.totalCompleted();
    cluster.run(seconds(2));
    EXPECT_GT(cluster.totalCompleted(), before + 50) << "shards=" << shards;
    for (std::size_t o = 0; o < kFrameOutcomeCount; ++o) {
      const auto outcome = static_cast<FrameOutcome>(o);
      if (outcome == FrameOutcome::kInFlight ||
          outcome == FrameOutcome::kCompleted) {
        continue;
      }
      EXPECT_EQ(cluster.outcomeTotal(outcome), 0u)
          << toString(outcome) << " shards=" << shards;
    }
    return cluster.metricsJson();
  };
  const std::string solo = run(1);
  EXPECT_EQ(run(2), solo);
}

}  // namespace
}  // namespace microedge
