// Discrete-event simulator: ordering, determinism, cancellation, periodic
// tasks, partial runs and the emitter bound.

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace microedge {
namespace {

TEST(SimulatorTest, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(kSimEpoch + milliseconds(30), [&] { order.push_back(3); });
  sim.schedule(kSimEpoch + milliseconds(10), [&] { order.push_back(1); });
  sim.schedule(kSimEpoch + milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  SimTime t = kSimEpoch + milliseconds(5);
  for (int i = 0; i < 10; ++i) {
    sim.schedule(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  SimTime seen{};
  sim.scheduleAfter(milliseconds(42), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, kSimEpoch + milliseconds(42));
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(42));
}

TEST(SimulatorTest, ScheduleInPastClampsToNow) {
  Simulator sim;
  sim.scheduleAfter(milliseconds(10), [&] {
    // Attempt to schedule "before now": clamped, still fires.
    sim.schedule(kSimEpoch, [] {});
  });
  EXPECT_EQ(sim.run(), 2u);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.scheduleAfter(milliseconds(5), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.firedCount(), 0u);
}

TEST(SimulatorTest, CancelInvalidIdIsNoop) {
  Simulator sim;
  sim.cancel(EventId{});
  sim.cancel(EventId{9999});
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(milliseconds(10), [&] { ++fired; });
  sim.scheduleAfter(milliseconds(20), [&] { ++fired; });
  sim.scheduleAfter(milliseconds(30), [&] { ++fired; });
  EXPECT_EQ(sim.runUntil(kSimEpoch + milliseconds(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(20));
  EXPECT_EQ(sim.pendingCount(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesNowEvenWithoutEvents) {
  Simulator sim;
  sim.runUntil(kSimEpoch + seconds(9));
  EXPECT_EQ(sim.now(), kSimEpoch + seconds(9));
}

TEST(SimulatorTest, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.scheduleAfter(milliseconds(1), chain);
  };
  sim.scheduleAfter(milliseconds(1), chain);
  sim.run();
  EXPECT_EQ(depth, 5);
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(milliseconds(1), [&] { ++fired; });
  sim.scheduleAfter(milliseconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(PeriodicTaskTest, FiresAtFixedInterval) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, milliseconds(100), [&] { fires.push_back(sim.now()); });
  task.start();
  sim.runUntil(kSimEpoch + milliseconds(350));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], kSimEpoch + milliseconds(100));
  EXPECT_EQ(fires[2], kSimEpoch + milliseconds(300));
}

TEST(PeriodicTaskTest, StopHalts) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, milliseconds(10), [&] { ++count; });
  task.start();
  sim.runUntil(kSimEpoch + milliseconds(35));
  task.stop();
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTaskTest, CallbackCanStopItself) {
  Simulator sim;
  int count = 0;
  PeriodicTask* handle = nullptr;
  PeriodicTask task(sim, milliseconds(10), [&] {
    if (++count == 2) handle->stop();
  });
  handle = &task;
  task.start();
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTaskTest, DestructorCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, milliseconds(10), [&] { ++count; });
    task.start();
    sim.runUntil(kSimEpoch + milliseconds(15));
  }
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, CancelFiredIdKeepsPendingCountSane) {
  // Regression: the seed engine tombstoned cancels of already-fired ids,
  // which made pendingCount() (queue size minus tombstones) wrap and
  // empty() lie.
  Simulator sim;
  EventId id = sim.scheduleAfter(milliseconds(1), [] {});
  sim.scheduleAfter(milliseconds(2), [] {});
  ASSERT_TRUE(sim.step());  // fires `id`
  sim.cancel(id);           // stale id: must be a no-op
  sim.cancel(id);           // double-cancel: still a no-op
  EXPECT_EQ(sim.pendingCount(), 1u);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.pendingCount(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, DoubleCancelDoesNotUnderflowPendingCount) {
  Simulator sim;
  EventId id = sim.scheduleAfter(milliseconds(1), [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.pendingCount(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, StaleIdOnRecycledSlotIsNoop) {
  Simulator sim;
  EventId a = sim.scheduleAfter(milliseconds(1), [] {});
  sim.run();
  // B re-uses A's slot; the stale A handle must not cancel it.
  bool bFired = false;
  sim.scheduleAfter(milliseconds(1), [&] { bFired = true; });
  sim.cancel(a);
  EXPECT_EQ(sim.pendingCount(), 1u);
  sim.run();
  EXPECT_TRUE(bFired);
}

TEST(SimulatorTest, RearmCurrentRepeatsTheFiringCallback) {
  Simulator sim;
  int count = 0;
  sim.scheduleAfter(milliseconds(1), [&] {
    if (++count < 3) sim.rearmCurrentAfter(milliseconds(1));
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(3));
}

TEST(SimulatorTest, CancellingRearmedIdStopsRepetition) {
  Simulator sim;
  int count = 0;
  sim.scheduleAfter(milliseconds(1), [&] {
    ++count;
    EventId next = sim.rearmCurrentAfter(milliseconds(1));
    if (count >= 2) sim.cancel(next);
  });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(sim.empty());
}

TEST(PeriodicTaskTest, StopTwiceThenRestartIsSafe) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, milliseconds(10), [&] { ++count; });
  task.start();
  sim.runUntil(kSimEpoch + milliseconds(25));
  task.stop();
  task.stop();  // regression: re-stop must not re-cancel a stale id
  bool bystander = false;
  sim.scheduleAfter(milliseconds(1), [&] { bystander = true; });
  task.stop();  // nor after an unrelated event took over the seq space
  sim.run();
  EXPECT_TRUE(bystander);
  EXPECT_EQ(count, 2);
  task.start();
  sim.runFor(milliseconds(15));
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto runOnce = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(kSimEpoch + milliseconds(i % 7), [&order, i] {
        order.push_back(i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST(SimulatorTest, EqualTimestampsScheduledAtDifferentNowsFireInSeqOrder) {
  Simulator sim;
  const SimTime start = sim.now();
  const SimTime when = start + milliseconds(70);
  std::vector<int> order;
  // e1 is scheduled 70 ms ahead; e2, 10 ms later, for the same timestamp,
  // so with a different delay.
  sim.schedule(when, [&order] { order.push_back(1); });
  sim.schedule(start + milliseconds(10), [&] {
    sim.schedule(when, [&order] { order.push_back(2); });
    EXPECT_EQ(sim.pendingCount(), 2u);
  });
  sim.run();
  // Global (when, seq) order: e1 was scheduled first and fires first.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, FiringOrderSpansNearAndDistantEvents) {
  Simulator sim;
  const SimTime start = sim.now();
  std::vector<int> order;
  // Interleave near and distant events, a nanosecond apart around 64 ms:
  // they fire in timestamp order whatever order they were scheduled in.
  sim.schedule(start + milliseconds(65), [&order] { order.push_back(3); });
  sim.schedule(start + milliseconds(1), [&order] { order.push_back(0); });
  sim.schedule(start + milliseconds(64), [&order] { order.push_back(2); });
  sim.schedule(start + milliseconds(64) - nanoseconds(1),
               [&order] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), start + milliseconds(65));
}

TEST(SimulatorTest, NextEventTimeSeesADistantEvent) {
  Simulator sim;
  const SimTime start = sim.now();
  EXPECT_EQ(sim.nextEventTime(), SimTime::max());
  sim.schedule(start + seconds(100), [] {});
  EXPECT_EQ(sim.nextEventTime(), start + seconds(100));
}

TEST(SimulatorTest, CancelRootInPlace) {
  Simulator sim;
  const SimTime start = sim.now();
  std::vector<int> order;
  EventId root =
      sim.schedule(start + milliseconds(100), [&order] { order.push_back(0); });
  sim.schedule(start + milliseconds(120), [&order] { order.push_back(1); });
  sim.schedule(start + milliseconds(140), [&order] { order.push_back(2); });
  ASSERT_EQ(sim.pendingCount(), 3u);
  // In-place removal of the root: no tombstone, the count drops now.
  sim.cancel(root);
  EXPECT_EQ(sim.pendingCount(), 2u);
  ASSERT_TRUE(sim.checkInvariants());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // Cancelling the already-fired / already-cancelled ids is a no-op.
  sim.cancel(root);
  EXPECT_EQ(sim.pendingCount(), 0u);
}

TEST(SimulatorTest, CancelTheNextEventFromACallback) {
  Simulator sim;
  const SimTime start = sim.now();
  bool laterFired = false;
  EventId later = sim.schedule(start + milliseconds(100),
                               [&laterFired] { laterFired = true; });
  // While this callback runs, `later` is the next event: the root.
  sim.schedule(start + milliseconds(50), [&] {
    EXPECT_EQ(sim.nextEventTime(), start + milliseconds(100));
    EXPECT_EQ(sim.pendingCount(), 1u);
    sim.cancel(later);
    EXPECT_EQ(sim.pendingCount(), 0u);
  });
  sim.runUntil(start + milliseconds(200));
  EXPECT_FALSE(laterFired);
  EXPECT_EQ(sim.now(), start + milliseconds(200));
}

TEST(SimulatorTest, EmitterBoundSeesOnlyTaggedEventsAndPurgesLazily) {
  Simulator sim;
  sim.setEmitterTracking(true);
  const SimTime start = sim.now();
  // Untagged events are invisible to the emitter bound.
  sim.schedule(start + milliseconds(100), [] {});
  sim.schedule(start + milliseconds(1), [] {});
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
  sim.schedule(start + milliseconds(200), [] {}, /*emitter=*/true);
  EXPECT_EQ(sim.nextEmitterTime(), start + milliseconds(200));
  // A nearer tagged event takes over the bound.
  EventId nearTagged =
      sim.schedule(start + milliseconds(2), [] {}, /*emitter=*/true);
  EXPECT_EQ(sim.nextEmitterTime(), start + milliseconds(2));
  // Cancelled entries are purged lazily when they surface at the top.
  sim.cancel(nearTagged);
  EXPECT_EQ(sim.nextEmitterTime(), start + milliseconds(200));
}

TEST(SimulatorTest, RetroactiveTaintOfAHeapEntry) {
  Simulator sim;
  sim.setEmitterTracking(true);
  const SimTime start = sim.now();
  EventId id = sim.schedule(start + milliseconds(100), [] {});
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
  // taintEvent locates the slot through its heap position.
  sim.taintEvent(id);
  EXPECT_EQ(sim.nextEmitterTime(), start + milliseconds(100));
  // Idempotent while pending, and a stale id after firing is a no-op.
  sim.taintEvent(id);
  EXPECT_EQ(sim.nextEmitterTime(), start + milliseconds(100));
  sim.run();
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
  sim.taintEvent(id);
  EXPECT_EQ(sim.nextEmitterTime(), SimTime::max());
}

TEST(SimulatorTest, RunBeforeLeavesTheEventAtTheBoundPending) {
  Simulator sim;
  const SimTime start = sim.now();
  std::vector<int> order;
  sim.schedule(start + milliseconds(10), [&order] { order.push_back(0); });
  sim.schedule(start + milliseconds(70), [&order] { order.push_back(1); });
  // Strictly-before bound: the event AT the bound stays pending, and the
  // clock parks at advanceTo.
  sim.runBefore(start + milliseconds(70), start + milliseconds(65));
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(sim.now(), start + milliseconds(65));
  EXPECT_EQ(sim.pendingCount(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// The engine's calling contract holds in every build: each violation
// aborts with its context instead of corrupting the run.
TEST(SimulatorDeathTest, RearmOutsideACallbackAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  EXPECT_DEATH(sim.rearmCurrentAfter(milliseconds(1)),
               "rearmCurrentAfter: called outside a firing callback");
}

TEST(SimulatorDeathTest, EmitterTrackingWithEventsPendingAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.setEmitterTracking(true);  // nothing pending yet: allowed
  sim.setEmitterTracking(false);
  sim.scheduleAfter(milliseconds(1), [] {});
  sim.setEmitterTracking(false);  // turning it off is always allowed
  EXPECT_DEATH(sim.setEmitterTracking(true),
               "enabled with 1 events already pending");
}

TEST(SimulatorDeathTest, NextEmitterTimeInsideACallbackAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.setEmitterTracking(true);
  sim.scheduleAfter(milliseconds(1), [&sim] { sim.nextEmitterTime(); });
  EXPECT_DEATH(sim.run(), "nextEmitterTime: called from inside a firing");
}

TEST(SimulatorDeathTest, RunBeforeOutsideNowAndBoundAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.runFor(milliseconds(10));
  // Past the bound.
  EXPECT_DEATH(sim.runBefore(kSimEpoch + milliseconds(20),
                             kSimEpoch + milliseconds(21)),
               "runBefore: advanceTo=21000000 ns outside");
  // Before now.
  EXPECT_DEATH(sim.runBefore(kSimEpoch + milliseconds(20),
                             kSimEpoch + milliseconds(5)),
               "runBefore: advanceTo=5000000 ns outside");
  // The two ends of the range are allowed.
  sim.runBefore(kSimEpoch + milliseconds(20), kSimEpoch + milliseconds(10));
  sim.runBefore(kSimEpoch + milliseconds(20), kSimEpoch + milliseconds(20));
  EXPECT_EQ(sim.now(), kSimEpoch + milliseconds(20));
}

}  // namespace
}  // namespace microedge
