// Delay lanes in the event engine.
//
// A push whose delay (when - now) matches a busy lane's delay waits in that
// lane behind one heap entry, the lane's head; everything else goes to the
// heap as before. These tests pin down what callers can see of that:
// follower and pending counts, hand-over when a head fires or is cancelled,
// O(1) unlinking of middle and tail followers, re-arms, retroactive taint,
// the fallback to the heap when every lane is busy, and lane reuse. Every
// test also checks the fire order, which lanes must never change.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace microedge {
namespace {

using Fired = std::vector<std::pair<int, SimTime>>;

// A callback that records (tag, fire time).
auto recorder(Simulator& sim, Fired& fired, int tag) {
  return [&sim, &fired, tag] { fired.emplace_back(tag, sim.now()); };
}

TEST(SimLane, FollowersCountAsPendingBehindTheirHead) {
  Simulator sim;
  // Three events 1 ms out share one lane: a head and two followers.
  for (int i = 0; i < 3; ++i) sim.scheduleAfter(milliseconds(1), [] {});
  EXPECT_EQ(sim.pendingCount(), 3u);
  EXPECT_EQ(sim.laneFollowerCount(), 2u);
  // Three events 64 ms out share a second lane.
  for (int i = 0; i < 3; ++i) sim.scheduleAfter(milliseconds(64), [] {});
  EXPECT_EQ(sim.laneFollowerCount(), 4u);
  EXPECT_EQ(sim.pendingCount(), 6u);
  ASSERT_TRUE(sim.checkInvariants());
  // Firing a head promotes its follower.
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.pendingCount(), 5u);
  EXPECT_EQ(sim.laneFollowerCount(), 3u);
  sim.runUntil(kSimEpoch + milliseconds(1));
  EXPECT_EQ(sim.pendingCount(), 3u);
  EXPECT_EQ(sim.laneFollowerCount(), 2u);
  ASSERT_TRUE(sim.checkInvariants());
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(sim.laneFollowerCount(), 0u);
  EXPECT_TRUE(sim.empty());
  ASSERT_TRUE(sim.checkInvariants());
}

TEST(SimLane, CancelledHeadHandsItsPositionToTheFollower) {
  for (const SimDuration delay : {milliseconds(5), milliseconds(100)}) {
    Simulator sim;
    Fired fired;
    sim.scheduleAfter(microseconds(500), recorder(sim, fired, 9));
    const EventId head = sim.scheduleAfter(delay, recorder(sim, fired, 0));
    sim.runFor(milliseconds(1));  // fires tag 9
    sim.scheduleAfter(delay, recorder(sim, fired, 1));
    // An earlier event keeps the head off the heap root.
    sim.scheduleAfter(delay - milliseconds(2), recorder(sim, fired, 7));
    sim.scheduleAfter(delay + milliseconds(2), recorder(sim, fired, 8));
    ASSERT_EQ(sim.laneFollowerCount(), 1u);
    sim.cancel(head);
    EXPECT_EQ(sim.laneFollowerCount(), 0u);
    EXPECT_EQ(sim.pendingCount(), 3u);
    ASSERT_TRUE(sim.checkInvariants());
    sim.cancel(head);  // stale: a no-op
    EXPECT_EQ(sim.pendingCount(), 3u);
    sim.run();
    const SimTime start = kSimEpoch;
    EXPECT_EQ(fired, (Fired{{9, start + microseconds(500)},
                            {7, start + delay - milliseconds(1)},
                            {1, start + milliseconds(1) + delay},
                            {8, start + milliseconds(3) + delay}}));
  }
}

TEST(SimLane, CancelledMiddleAndTailFollowersUnlink) {
  Simulator sim;
  Fired fired;
  const SimDuration delay = milliseconds(2);
  std::vector<EventId> ids;
  // Five members 100 us apart: a head and four followers.
  for (int i = 0; i < 5; ++i) {
    ids.push_back(sim.scheduleAfter(delay, recorder(sim, fired, i)));
    sim.runFor(microseconds(100));
  }
  ASSERT_EQ(sim.laneFollowerCount(), 4u);
  sim.cancel(ids[2]);  // middle
  EXPECT_EQ(sim.laneFollowerCount(), 3u);
  ASSERT_TRUE(sim.checkInvariants());
  sim.cancel(ids[4]);  // tail: the lane's tail steps back to member 3
  EXPECT_EQ(sim.laneFollowerCount(), 2u);
  ASSERT_TRUE(sim.checkInvariants());
  // A new push lands after the new tail.
  sim.scheduleAfter(delay, recorder(sim, fired, 5));
  EXPECT_EQ(sim.laneFollowerCount(), 3u);
  ASSERT_TRUE(sim.checkInvariants());
  sim.run();
  const SimTime start = kSimEpoch + delay;
  EXPECT_EQ(fired, (Fired{{0, start},
                          {1, start + microseconds(100)},
                          {3, start + microseconds(300)},
                          {5, start + microseconds(500)}}));
}

TEST(SimLane, RearmsJoinTheLaneOfTheirPeriod) {
  Simulator sim;
  Fired fired;
  std::vector<std::unique_ptr<PeriodicTask>> tasks;
  // Four tasks with one period, started 1 ms apart: one lane holds them.
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(std::make_unique<PeriodicTask>(
        sim, milliseconds(10), recorder(sim, fired, i)));
    tasks.back()->start();
    sim.runFor(milliseconds(1));
  }
  EXPECT_EQ(sim.laneFollowerCount(), 3u);
  sim.runUntil(kSimEpoch + milliseconds(25));
  // Each re-arm appended to the lane's tail, so the lane still holds all.
  EXPECT_EQ(sim.laneFollowerCount(), 3u);
  ASSERT_TRUE(sim.checkInvariants());
  Fired expected;
  for (int round = 1; round <= 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      expected.emplace_back(i, kSimEpoch + milliseconds(10 * round + i));
    }
  }
  EXPECT_EQ(fired, expected);
  for (auto& t : tasks) t->stop();
  EXPECT_TRUE(sim.empty());
  ASSERT_TRUE(sim.checkInvariants());
}

TEST(SimLane, RearmBehindALaterSameDelayPushGoesToTheHeap) {
  Simulator sim;
  Fired fired;
  const SimDuration delay = milliseconds(5);
  // The callback re-arms itself 5 ms out (its seq is taken now), then
  // schedules another event 5 ms out, which the lane takes first. The
  // re-arm would not land after that tail, so it goes to the heap, and
  // still fires first at the shared timestamp.
  int rounds = 0;
  sim.scheduleAfter(delay, [&] {
    fired.emplace_back(0, sim.now());
    if (++rounds > 1) return;
    sim.rearmCurrentAfter(delay);
    sim.scheduleAfter(delay, recorder(sim, fired, 1));
  });
  sim.runFor(delay);
  EXPECT_EQ(sim.pendingCount(), 2u);
  EXPECT_EQ(sim.laneFollowerCount(), 0u);
  ASSERT_TRUE(sim.checkInvariants());
  sim.run();
  EXPECT_EQ(fired, (Fired{{0, kSimEpoch + delay},
                          {0, kSimEpoch + 2 * delay},
                          {1, kSimEpoch + 2 * delay}}));
}

TEST(SimLane, TaintedFollowerIsSeenByTheEmitterBound) {
  Simulator sim;
  sim.setEmitterTracking(true);
  sim.scheduleAfter(milliseconds(3), [] {});
  sim.runFor(milliseconds(1));
  const EventId follower = sim.scheduleAfter(milliseconds(3), [] {});
  ASSERT_EQ(sim.laneFollowerCount(), 1u);
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
  sim.taintEvent(follower);
  EXPECT_EQ(sim.nextEmitterTime(), kSimEpoch + milliseconds(4));
  // The head fires; the follower, now the head, keeps the bound.
  sim.runFor(milliseconds(2) + microseconds(500));
  EXPECT_EQ(sim.nextEmitterTime(), kSimEpoch + milliseconds(4));
  sim.run();
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
}

TEST(SimLane, DelaysBeyondTheLaneCountFallBackToTheHeap) {
  Simulator sim;
  Fired fired;
  const int delays = static_cast<int>(Simulator::laneCount()) + 4;
  // Two events per delay, pushed longest delay first: the first
  // laneCount() delays bind every lane (a head and a follower each); the
  // last four find no free lane and both of their events go to the heap.
  for (int d = delays; d >= 1; --d) {
    for (int k = 0; k < 2; ++k) {
      sim.scheduleAfter(microseconds(d), recorder(sim, fired, 2 * d + k));
    }
  }
  EXPECT_EQ(sim.laneFollowerCount(), Simulator::laneCount());
  EXPECT_EQ(sim.pendingCount(), static_cast<std::size_t>(2 * delays));
  ASSERT_TRUE(sim.checkInvariants());
  sim.run();
  Fired expected;
  for (int d = 1; d <= delays; ++d) {
    for (int k = 0; k < 2; ++k) {
      expected.emplace_back(2 * d + k, kSimEpoch + microseconds(d));
    }
  }
  EXPECT_EQ(fired, expected);
}

TEST(SimLane, DrainedLaneIsReusedForANewDelay) {
  Simulator sim;
  const std::size_t lanes = Simulator::laneCount();
  // Bind every lane with one event each.
  for (std::size_t d = 1; d <= lanes; ++d) {
    sim.scheduleAfter(microseconds(static_cast<std::int64_t>(d)), [] {});
  }
  // No lane is free for a new delay: both events wait in the heap.
  sim.scheduleAfter(milliseconds(1), [] {});
  sim.scheduleAfter(milliseconds(1), [] {});
  EXPECT_EQ(sim.laneFollowerCount(), 0u);
  // The short lanes drain; a new delay then binds one of them.
  sim.runFor(microseconds(static_cast<std::int64_t>(lanes)));
  EXPECT_EQ(sim.pendingCount(), 2u);
  sim.scheduleAfter(milliseconds(2), [] {});
  sim.scheduleAfter(milliseconds(2), [] {});
  EXPECT_EQ(sim.laneFollowerCount(), 1u);
  ASSERT_TRUE(sim.checkInvariants());
  EXPECT_EQ(sim.run(), 4u);
  ASSERT_TRUE(sim.checkInvariants());
}

}  // namespace
}  // namespace microedge
