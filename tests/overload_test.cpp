// Closed-loop overload control (DESIGN.md §14): the admission ledger's
// charge/credit arithmetic and progress rule, the per-stream degradation
// ladder's hysteresis, the SLO-triggered repack supervisor's windowing, and
// the end-to-end contracts — admission-on below capacity is outcome-identical
// to admission-off, an overloaded admission-on client never lets an admitted
// frame miss its deadline, the metrics export carries the new counters
// with features off reading all-zero, and repacks triggered by real
// pressure under live traffic end every frame exactly once at any shard
// count. Every loop runs at its production tuning (the constants in
// StreamDegrader and RepackSupervisor).

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

// Windows scripted against the supervisor's constants: a pressured window
// attains 0.5 (< kAttainmentThreshold), a healthy one 1.0.
struct ScriptedSlo {
  RepackSupervisor::Sample current;
  int repacks = 0;

  RepackSupervisor makeSupervisor() {
    return RepackSupervisor(
        [this] { return current; },
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
  void pressured() { window(50, 100); }
  void healthy() { window(100, 100); }
};

TEST(RepackSupervisorTest, TriggersAfterSustainedPressure) {
  ScriptedSlo slo;
  RepackSupervisor supervisor = slo.makeSupervisor();

  slo.healthy();
  EXPECT_FALSE(supervisor.onWindow());
  // A window exactly at the threshold is not pressured.
  slo.window(90, 100);
  EXPECT_FALSE(supervisor.onWindow());
  EXPECT_EQ(supervisor.pressuredWindows(), 0u);
  for (std::uint32_t i = 1; i < RepackSupervisor::kSustainWindows; ++i) {
    slo.pressured();
    EXPECT_FALSE(supervisor.onWindow()) << "window " << i;
  }
  slo.pressured();
  EXPECT_TRUE(supervisor.onWindow());  // the kSustainWindows-th in a row
  EXPECT_EQ(slo.repacks, 1);
  EXPECT_EQ(supervisor.repacksTriggered(), 1u);
  EXPECT_TRUE(supervisor.lastReport().applied);
  EXPECT_DOUBLE_EQ(supervisor.lastAttainment(), 0.5);
}

TEST(RepackSupervisorTest, CooldownHoldsOffRetrigger) {
  ScriptedSlo slo;
  RepackSupervisor supervisor = slo.makeSupervisor();

  // Sustained misery: the first trigger takes kSustainWindows (3) windows
  // and every later one kCooldownWindows (5) more, so 19 windows yield
  // exactly three, at windows 3, 11 and 19, instead of one every third
  // window.
  std::vector<int> triggeredAt;
  for (int i = 1; i <= 19; ++i) {
    slo.pressured();
    if (supervisor.onWindow()) triggeredAt.push_back(i);
  }
  EXPECT_EQ(triggeredAt, (std::vector<int>{3, 11, 19}));
  EXPECT_EQ(slo.repacks, 3);
  // Cooldown windows are observed but neither pressured nor counted.
  EXPECT_EQ(supervisor.windowsObserved(), 19u);
  EXPECT_EQ(supervisor.pressuredWindows(), 9u);
}

TEST(RepackSupervisorTest, HealthyWindowResetsStreak) {
  ScriptedSlo slo;
  RepackSupervisor supervisor = slo.makeSupervisor();

  slo.pressured();
  EXPECT_FALSE(supervisor.onWindow());
  slo.pressured();
  EXPECT_FALSE(supervisor.onWindow());
  slo.healthy();  // recovery resets the streak
  EXPECT_FALSE(supervisor.onWindow());
  slo.pressured();
  EXPECT_FALSE(supervisor.onWindow());  // streak restarted at 1
  slo.pressured();
  EXPECT_FALSE(supervisor.onWindow());
  slo.pressured();
  EXPECT_TRUE(supervisor.onWindow());
}

TEST(RepackSupervisorTest, QuietWindowsAreNeutral) {
  ScriptedSlo slo;
  RepackSupervisor supervisor = slo.makeSupervisor();

  slo.pressured();
  EXPECT_FALSE(supervisor.onWindow());
  // No traffic at all: neither pressured nor healthy, streak holds.
  EXPECT_FALSE(supervisor.onWindow());
  EXPECT_FALSE(supervisor.onWindow());
  slo.pressured();
  EXPECT_FALSE(supervisor.onWindow());
  EXPECT_FALSE(supervisor.onWindow());
  slo.pressured();
  EXPECT_TRUE(supervisor.onWindow());
  EXPECT_EQ(supervisor.pressuredWindows(), 3u);
  EXPECT_EQ(supervisor.windowsObserved(), 6u);
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
    config.clientNode = internNode("vrpi-00");
    config.model = internModel(zoo::kMobileNetV1);
    config.frameDeadline = deadline;
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

  const SimDuration nominal = framePeriod(15.0);
  PeriodicTask task(cluster.sim, nominal, [] {});
  StreamRateControl rate(task, nominal);
  StreamDegrader degrader(*client, rate, /*stepDownPressure=*/0.25);
  constexpr std::size_t kBottom = StreamDegrader::kLadder.size() - 1;

  auto onDone = [&degrader](const FrameBreakdown&) { degrader.onFrame(); };
  // Pressured window: pairs of back-to-back submissions — the second is
  // admission-rejected while the first is still charged, so the window runs
  // at pressure 0.5 >= 0.25.
  auto pressuredWindow = [&] {
    for (std::uint32_t i = 0; i < StreamDegrader::kWindowFrames / 2; ++i) {
      ASSERT_TRUE(client->invoke(onDone).isOk());
      ASSERT_TRUE(client->invoke(onDone).isOk());  // rejected synchronously
      cluster.sim.run();                           // drain the admitted one
    }
  };
  // Clean window: one frame at a time, drained to completion — pressure 0.
  auto cleanWindow = [&] {
    for (std::uint32_t i = 0; i < StreamDegrader::kWindowFrames; ++i) {
      ASSERT_TRUE(client->invoke(onDone).isOk());
      cluster.sim.run();
    }
  };

  // Each rung down takes kSustainWindows (2) pressured windows.
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), 0u);  // one pressured window is not sustained
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), 1u);
  EXPECT_EQ(degrader.stepDowns(), 1u);
  EXPECT_EQ(task.period(), SimDuration{nominal.count() * 4 / 3});
  for (std::size_t rung = 2; rung <= kBottom; ++rung) {
    pressuredWindow();
    EXPECT_EQ(degrader.rung(), rung - 1);
    pressuredWindow();
    EXPECT_EQ(degrader.rung(), rung);
  }
  EXPECT_DOUBLE_EQ(degrader.multiplier(), 0.25);
  EXPECT_EQ(task.period(), nominal * 4);
  // The bottom rung holds: the controller never indexes past the ladder.
  pressuredWindow();
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), kBottom);
  EXPECT_EQ(degrader.stepDowns(), kBottom);

  // Each rung up takes kCoolDownWindows (4) clean windows, and the
  // cool-down streak resets after each step (hysteresis).
  for (std::size_t rung = kBottom; rung > 0; --rung) {
    for (std::uint32_t w = 1; w < StreamDegrader::kCoolDownWindows; ++w) {
      cleanWindow();
      EXPECT_EQ(degrader.rung(), rung) << "clean window " << w;
    }
    cleanWindow();
    EXPECT_EQ(degrader.rung(), rung - 1);
  }
  EXPECT_EQ(degrader.stepUps(), kBottom);
  EXPECT_EQ(task.period(), nominal);

  // An opposite window resets the streak: pressured, clean, pressured does
  // not step down; a second pressured window in a row does.
  pressuredWindow();
  cleanWindow();
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), 0u);
  pressuredWindow();
  EXPECT_EQ(degrader.rung(), 1u);
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

// Degradation on a deliberately overloaded sharded cluster: every stream
// steps down and recovers within the ladder, and a rerun at the same shard
// count takes the same step sequence byte for byte.
TEST(OverloadMetricsTest, ShardedDegradationIsDeterministicAndBounded) {
  auto run = [](unsigned shards) {
    ShardedClusterConfig config;
    config.shards = shards;
    config.racks = 2;
    config.tRpisPerRack = 1;
    config.vRpisPerRack = 2;
    config.tpusPerTRpi = 1;
    // 4 streams x 150 fps of mobilenet at half a TPU each: two streams per
    // TPU offer 300 fps against its ~222, 1.35x its rate.
    config.fps = 150.0;
    config.tpuUnits = 0.5;
    config.frameDeadline = milliseconds(60);
    config.frameAdmission.enabled = true;
    config.degradation.enabled = true;
    config.degradation.stepDownPressure = 0.25;
    ShardedCluster cluster(config);
    EXPECT_TRUE(cluster.setupStatus().isOk());
    cluster.run(seconds(4));
    EXPECT_GT(cluster.totalDegradeDowns(), 0u)
        << "overloaded streams never stepped down at shards=" << shards;
    for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
      const ShardedCluster::StreamStats stats = cluster.streamStats(i);
      EXPECT_GE(stats.degradeDowns, stats.degradeUps) << stats.camera;
      EXPECT_LE(stats.degradeDowns - stats.degradeUps,
                StreamDegrader::kLadder.size() - 1)
          << stats.camera;
    }
    return cluster.metricsJson();
  };
  for (unsigned shards : {1u, 2u}) {
    const std::string first = run(shards);
    EXPECT_EQ(run(shards), first) << "shards=" << shards;
  }
}

// --- Repacking under live traffic --------------------------------------------

TEST(ShardedRepackTest, RepackFiresUnderLiveTrafficAndStreamsSurvive) {
  // Real pressure: each stream holds 0.2 units where its 60 fps needs 0.27,
  // so admission packs five streams on each TPU at 1.35x its rate. Under a
  // deadline and per-frame admission the rejected frames keep each rack's
  // deadline-met share under kAttainmentThreshold, so after kSustainWindows
  // windows (6 s) each rack's supervisor replans through the drain ->
  // replan -> weight-push path under live traffic. The test is that
  // nothing breaks and the run stays shard-count invariant, not that the
  // replan finds improvement.
  auto run = [](unsigned shards) {
    ShardedClusterConfig config;
    config.shards = shards;
    config.racks = 2;
    config.tRpisPerRack = 2;
    config.vRpisPerRack = 5;
    config.streamsPerVRpi = 2;
    config.fps = 60.0;
    config.tpuUnits = 0.2;
    config.frameDeadline = milliseconds(60);
    config.frameAdmission.enabled = true;
    config.repack.enabled = true;
    ShardedCluster cluster(config);
    EXPECT_TRUE(cluster.setupStatus().isOk())
        << cluster.setupStatus().toString();
    const SimDuration firstRepack =
        RepackSupervisor::kWindow * RepackSupervisor::kSustainWindows;
    cluster.run(firstRepack + RepackSupervisor::kWindow / 2);
    const std::uint64_t repacks = cluster.totalRepacks();
    EXPECT_GE(repacks, 1u) << "shards=" << shards;
    EXPECT_GT(cluster.outcomeTotal(FrameOutcome::kAdmissionRejected), 0u);

    // Streams keep completing after the last repack: the cooldown holds the
    // next one off well past this stretch.
    const std::uint64_t before = cluster.totalCompleted();
    cluster.run(RepackSupervisor::kWindow);
    EXPECT_EQ(cluster.totalRepacks(), repacks) << "shards=" << shards;
    EXPECT_GT(cluster.totalCompleted(), before + 1000) << "shards=" << shards;

    // Drained, every frame reached exactly one terminal outcome.
    cluster.stopStreams();
    cluster.run(seconds(1));
    for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
      const ShardedCluster::StreamStats stats = cluster.streamStats(i);
      std::uint64_t terminal = 0;
      for (std::size_t o = 1; o < kFrameOutcomeCount; ++o) {
        terminal += stats.outcomes[o];
      }
      EXPECT_EQ(stats.outcomes[0], 0u) << stats.camera;
      EXPECT_EQ(terminal, stats.submitted) << stats.camera;
    }
    return cluster.metricsJson();
  };
  const std::string solo = run(1);
  EXPECT_EQ(run(2), solo);
}

}  // namespace
}  // namespace microedge
