// Closed-loop overload control (DESIGN.md §14): the admission ledger's
// charge/credit arithmetic and progress rule, the per-stream degradation
// ladder's hysteresis, and the end-to-end contracts — admission-on below
// capacity is outcome-identical to admission-off, an overloaded admission-on
// client never lets an admitted frame miss its deadline, the metrics export
// carries the new counters with features off reading all-zero, and each
// control-policy bundle arms exactly its own loops. Every loop runs at its
// production tuning (the constants in StreamDegrader).

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/admission_ledger.hpp"
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

// --- Control-policy bundles --------------------------------------------------

// The loops a policy can arm: the frame deadline (ns), per-frame admission
// and degradation.
using ArmedLoops = std::tuple<std::int64_t, bool, bool>;

ArmedLoops armedLoops(const ShardedClusterConfig& config) {
  return {config.frameDeadline.count(), config.frameAdmission.enabled,
          config.degradation.enabled};
}

TEST(ControlPolicyTest, EachBundleArmsExactlyItsLoops) {
  const SimDuration deadline = milliseconds(60);
  const ArmedLoops expected[] = {
      {0, false, false},                 // none
      {deadline.count(), true, false},   // admit
      {deadline.count(), true, true},    // degrade
  };
  ASSERT_EQ(kControlPolicies.size(), std::size(expected));
  for (std::size_t i = 0; i < kControlPolicies.size(); ++i) {
    ShardedClusterConfig config;
    EXPECT_TRUE(applyControlPolicy(kControlPolicies[i], deadline, &config)
                    .isOk());
    EXPECT_EQ(armedLoops(config), expected[i]) << kControlPolicies[i];
  }
}

// A name that is no bundle (a retired one, an empty one, a miscased one) is
// rejected before any loop is armed, so no caller runs a bundle it did not
// name.
TEST(ControlPolicyTest, UnknownNameIsRejectedAndChangesNothing) {
  for (const char* name : {"full", "", "Degrade"}) {
    ShardedClusterConfig config;
    const ArmedLoops before = armedLoops(config);
    const Status status =
        applyControlPolicy(name, milliseconds(60), &config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_EQ(armedLoops(config), before) << name;
  }
}

}  // namespace
}  // namespace microedge
