// Unit tests for the sharded-simulation core: ShardMap rack parsing and
// assignment, the conservative-lookahead window loop, the window bound with
// emitter tracking on and off, mailbox delivery ordering and its
// delivery-time check, and the shards=1 canonical bypass.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/sharded_sim.hpp"
#include "sim/topology.hpp"
#include "util/intern.hpp"

namespace microedge {
namespace {

TEST(ShardMap, RoundRobinRackAssignment) {
  ShardMap map(3);
  EXPECT_EQ(map.shards(), 3u);
  EXPECT_EQ(map.shardOfRack(0), 0u);
  EXPECT_EQ(map.shardOfRack(1), 1u);
  EXPECT_EQ(map.shardOfRack(2), 2u);
  EXPECT_EQ(map.shardOfRack(3), 0u);

  map.assign(internNode("r4-vrpi-01"), map.shardOfRack(4));
  EXPECT_EQ(map.shardOf(internNode("r4-vrpi-01")), 1u);
  // A flat cluster is rack 0, shard 0; unmapped nodes read as shard 0 too.
  map.assign(internNode("vrpi-09"), map.shardOfRack(0));
  EXPECT_EQ(map.shardOf(internNode("vrpi-09")), 0u);
  EXPECT_EQ(map.shardOf(internNode("never-assigned")), 0u);
  EXPECT_EQ(map.mappedCount(), 2u);
}

TEST(ShardedSim, SoloShardBypassesWindowLoop) {
  ShardedSim sharded(1, microseconds(500));
  std::vector<int> order;
  sharded.shardSim(0).schedule(sharded.now() + milliseconds(1),
                               [&order] { order.push_back(1); });
  sharded.shardSim(0).schedule(sharded.now() + milliseconds(2),
                               [&order] { order.push_back(2); });
  const std::size_t fired = sharded.runFor(milliseconds(5));
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // Canonical path: no windows, no cross-shard traffic, clock at deadline.
  EXPECT_EQ(sharded.windowCount(), 0u);
  EXPECT_EQ(sharded.crossShardMessages(), 0u);
  EXPECT_EQ(sharded.now().time_since_epoch(), milliseconds(5));
}

TEST(ShardedSim, CrossShardMessageArrivesAtDeliveryTime) {
  const SimDuration lookahead = microseconds(500);
  ShardedSim sharded(2, lookahead);
  // Per-shard traces: each vector is written only by its own shard's
  // worker; the run() barrier orders the writes before our reads.
  std::vector<std::pair<std::string, SimDuration>> trace0, trace1;

  const SimTime start = sharded.now();
  sharded.shardSim(0).schedule(start + milliseconds(1), [&] {
    trace0.emplace_back("send", sharded.shardSim(0).now() - start);
    sharded.postToShard(1, sharded.shardSim(0).now() + lookahead, [&] {
      trace1.emplace_back("recv", sharded.shardSim(1).now() - start);
    });
  });
  sharded.runFor(milliseconds(4));

  ASSERT_EQ(trace0.size(), 1u);
  ASSERT_EQ(trace1.size(), 1u);
  EXPECT_EQ(trace0[0].second, milliseconds(1));
  // Delivered exactly at the stamped delivery time, one lookahead later.
  EXPECT_EQ(trace1[0].second, milliseconds(1) + lookahead);
  EXPECT_EQ(sharded.crossShardMessages(), 1u);
  EXPECT_GE(sharded.windowCount(), 1u);
}

TEST(ShardedSim, PingPongAdvancesWindowByWindow) {
  const SimDuration lookahead = microseconds(500);
  ShardedSim sharded(2, lookahead);
  // A message chain bouncing between the shards: each hop lands exactly one
  // lookahead after its send, so hop k fires at start + (k+1) * lookahead.
  std::vector<SimDuration> hops0, hops1;
  constexpr int kHops = 8;
  const SimTime start = sharded.now();

  struct Bouncer {
    ShardedSim* sharded;
    SimTime start;
    std::vector<SimDuration>* hops0;
    std::vector<SimDuration>* hops1;
    SimDuration lookahead;
    void bounce(unsigned shard, int remaining) {
      Simulator& sim = sharded->shardSim(shard);
      (shard == 0 ? hops0 : hops1)->push_back(sim.now() - start);
      if (remaining == 0) return;
      Bouncer self = *this;
      sharded->postToShard(1 - shard, sim.now() + lookahead,
                           [self, shard, remaining]() mutable {
                             self.bounce(1 - shard, remaining - 1);
                           });
    }
  };
  Bouncer bouncer{&sharded, start, &hops0, &hops1, lookahead};
  sharded.shardSim(0).schedule(start + lookahead, [bouncer]() mutable {
    bouncer.bounce(0, kHops);
  });
  sharded.runFor(milliseconds(20));

  ASSERT_EQ(hops0.size() + hops1.size(), static_cast<std::size_t>(kHops + 1));
  // Shard 0 hosts hops 0, 2, 4, ...; shard 1 the odd ones; hop k fires at
  // (k + 1) * lookahead.
  for (std::size_t i = 0; i < hops0.size(); ++i) {
    EXPECT_EQ(hops0[i], (2 * i + 1) * lookahead) << "hop " << 2 * i;
  }
  for (std::size_t i = 0; i < hops1.size(); ++i) {
    EXPECT_EQ(hops1[i], (2 * i + 2) * lookahead) << "hop " << 2 * i + 1;
  }
  EXPECT_EQ(sharded.crossShardMessages(), static_cast<std::size_t>(kHops));
}

TEST(ShardedSim, PostToNodeRoutesThroughShardMap) {
  ShardedSim sharded(2, microseconds(500));
  sharded.shardMap().assign(internNode("r0-vrpi-00"), 0);
  sharded.shardMap().assign(internNode("r1-vrpi-01"), 1);
  // One flag per shard: each is written only by its own shard's worker.
  SimDuration fired0{}, fired1{};
  const SimTime start = sharded.now();
  sharded.postToShard(sharded.shardOfNode(internNode("r1-vrpi-01")),
                      start + milliseconds(1), [&] {
                        fired1 = sharded.shardSim(1).now() - start;
                      });
  sharded.postToShard(sharded.shardOfNode(internNode("r0-vrpi-00")),
                      start + milliseconds(2), [&] {
                        fired0 = sharded.shardSim(0).now() - start;
                      });
  sharded.runFor(milliseconds(3));
  EXPECT_EQ(fired1, milliseconds(1));
  EXPECT_EQ(fired0, milliseconds(2));
  EXPECT_EQ(sharded.shardMap().shardOf(internNode("r1-vrpi-01")), 1u);
}

TEST(ShardedSim, RepeatedRunsResumeCleanly) {
  ShardedSim sharded(2, microseconds(500));
  std::vector<SimDuration> at;
  const SimTime start = sharded.now();
  for (int i = 1; i <= 4; ++i) {
    sharded.shardSim(static_cast<unsigned>(i) % 2)
        .schedule(start + milliseconds(i),
                  [&at, &sharded, i] {
                    at.push_back(sharded.shardSim(static_cast<unsigned>(i) % 2)
                                     .now()
                                     .time_since_epoch());
                  });
  }
  sharded.runFor(milliseconds(2));  // fires events at 1 ms and 2 ms
  EXPECT_EQ(at.size(), 2u);
  EXPECT_EQ(sharded.now(), start + milliseconds(2));
  sharded.runFor(milliseconds(2));  // fires the rest
  ASSERT_EQ(at.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(at[static_cast<std::size_t>(i)], milliseconds(i + 1));
  }
  EXPECT_EQ(sharded.now(), start + milliseconds(4));
}

TEST(ShardedSim, AdaptiveBoundMatchesFixedBitForBit) {
  // One bound formula, B = min over shards of nextEmitterTime() +
  // lookahead, with emitter tracking on (kAdaptive) and off (kFixed, where
  // every event counts as a sender): dense shard-local ticks punctuated by
  // sparse cross-shard sends whose roots are emitter-tagged. The fire trace
  // must be IDENTICAL in both modes, and the adaptive bound must step over
  // the local ticks in fewer windows.
  auto script = [](ShardedSim::WindowBound mode,
                   std::vector<std::string>* trace) {
    const SimDuration lookahead = microseconds(500);
    ShardedSim sharded(2, lookahead, mode);
    const SimTime start = sharded.now();
    std::vector<std::vector<std::string>> perShard(2);
    for (unsigned s = 0; s < 2; ++s) {
      // Dense local ticks: every 100us for 20ms, none of them a sender.
      for (int i = 1; i <= 200; ++i) {
        sharded.shardSim(s).schedule(start + microseconds(100 * i), [&, s] {
          perShard[s].push_back(
              "tick@" + std::to_string(sharded.shardSim(s)
                                           .now()
                                           .time_since_epoch()
                                           .count()));
        });
      }
      // Sparse cross-shard sends from tagged roots.
      for (int i = 1; i <= 4; ++i) {
        sharded.shardSim(s).schedule(
            start + milliseconds(5 * i) + microseconds(50),
            [&, s] {
              sharded.postToShard(
                  1 - s, sharded.shardSim(s).now() + lookahead, [&, s] {
                    perShard[1 - s].push_back(
                        "x" + std::to_string(s) + "@" +
                        std::to_string(sharded.shardSim(1 - s)
                                           .now()
                                           .time_since_epoch()
                                           .count()));
                  });
            },
            /*emitter=*/true);
      }
    }
    sharded.runFor(milliseconds(25));
    for (const auto& shardTrace : perShard) {
      for (const auto& entry : shardTrace) trace->push_back(entry);
    }
    return sharded.windowCount();
  };

  std::vector<std::string> fixedTrace, adaptiveTrace;
  const std::size_t fixedWindows =
      script(ShardedSim::WindowBound::kFixed, &fixedTrace);
  const std::size_t adaptiveWindows =
      script(ShardedSim::WindowBound::kAdaptive, &adaptiveTrace);
  EXPECT_EQ(fixedTrace.size(), 2u * (200u + 4u));
  EXPECT_EQ(adaptiveTrace, fixedTrace);
  EXPECT_LT(adaptiveWindows, fixedWindows);
}

// The delivery-time invariant holds in every build. Under kAdaptive an
// untagged root is invisible to the bound, so its cross-shard send would
// land inside the current window: postToShard must abort instead of
// letting the receiver fire it out of order. The same script is sound
// under kFixed, where every event counts as a sender.
TEST(ShardedSimDeathTest, UntaggedCrossShardSendAbortsUnderAdaptive) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto script = [](ShardedSim::WindowBound mode) {
    const SimDuration lookahead = microseconds(500);
    ShardedSim sharded(2, lookahead, mode);
    int received = 0;  // written by shard 1's worker, read after run()
    Simulator& shard0 = sharded.shardSim(0);
    shard0.schedule(shard0.now() + milliseconds(1), [&] {
      sharded.postToShard(1, shard0.now() + lookahead,
                          [&received] { ++received; });
    });
    sharded.runFor(milliseconds(10));
    return received;
  };
  EXPECT_EQ(script(ShardedSim::WindowBound::kFixed), 1);
  EXPECT_DEATH(script(ShardedSim::WindowBound::kAdaptive),
               "violates the delivery-time invariant");
}

TEST(ShardedSim, DeterministicAcrossRuns) {
  // The same scripted workload produces the identical fire trace twice —
  // including equal-timestamp cross-shard deliveries, whose tie-break is
  // the deterministic mailbox merge order, not thread timing.
  auto script = [](std::vector<std::string>* trace) {
    const SimDuration lookahead = microseconds(500);
    ShardedSim sharded(4, lookahead);
    const SimTime start = sharded.now();
    std::vector<std::vector<std::string>> perShard(4);
    for (unsigned s = 0; s < 4; ++s) {
      sharded.shardSim(s).schedule(start + milliseconds(1), [&, s] {
        // Every shard posts to every other shard with the SAME delivery
        // time: the merge must order them by (src shard, seq).
        for (unsigned d = 0; d < 4; ++d) {
          if (d == s) continue;
          sharded.postToShard(
              d, sharded.shardSim(s).now() + lookahead, [&perShard, s, d] {
                perShard[d].push_back(std::to_string(s) + "->" +
                                      std::to_string(d));
              });
        }
      });
    }
    sharded.runFor(milliseconds(3));
    for (const auto& shardTrace : perShard) {
      for (const auto& entry : shardTrace) trace->push_back(entry);
    }
  };
  std::vector<std::string> first, second;
  script(&first);
  script(&second);
  EXPECT_EQ(first.size(), 12u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace microedge
