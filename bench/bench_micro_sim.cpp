// google-benchmark microbenchmarks for the discrete-event engine itself.
//
// Every figure reproduction rides on Simulator, so its per-event overhead
// bounds the cluster sizes we can replay. These benchmarks track the four
// hot paths:
//
//   - fire throughput: drain a pre-filled queue (small and actor-sized
//     callback captures);
//   - hold: schedule+fire at a sustained pending depth of 10k..1M events;
//   - cancel-heavy: interleaved schedule/cancel churn (the pattern pod
//     lifecycle management produces);
//   - periodic-heavy: many PeriodicTasks re-arming every tick (cameras,
//     pollers, samplers);
//   - lane rebind: a steady state that cycles more distinct delays than the
//     engine has delay lanes, so lanes drain and rebind continuously.
//
// The binary also overrides global operator new/delete with a counting
// allocator so the "zero heap allocations per fired event" property is
// checked, not assumed: the fire, periodic and lane-rebind benchmarks abort
// the process on any allocation in their timed phase, which makes them a
// CI gate (the `allocs_per_event` counter they report is therefore 0).
//
// Emit machine-readable results with bench/run_bench.sh (-> BENCH_sim.json).

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "count_allocs.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace microedge {
namespace {

// Aborts when a timed phase allocated: the engine must fire, re-arm and
// rebind lanes without touching the heap once its arena is sized.
void requireNoAllocs(const char* bench, std::uint64_t allocs,
                     std::uint64_t events) {
  if (allocs == 0) return;
  std::fprintf(stderr,
               "FATAL: %s: %llu heap allocations over %llu fired events in "
               "the timed phase; the event engine must be allocation-free\n",
               bench, static_cast<unsigned long long>(allocs),
               static_cast<unsigned long long>(events));
  std::abort();
}

// Fire throughput with a minimal capture (one pointer): schedule `n` events
// at scattered timestamps, then time the drain. The schedule phase is
// untimed; an allocation during run() aborts.
void BM_FireThroughputSmall(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t fires = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Pcg32 rng(1234);
    auto sim = std::make_unique<Simulator>();
    for (int i = 0; i < n; ++i) {
      sim->schedule(kSimEpoch + microseconds(rng.nextBounded(1u << 20)),
                    [&sink] { ++sink; });
    }
    const std::uint64_t before = allocsNow();
    state.ResumeTiming();
    const std::size_t fired = sim->run();
    state.PauseTiming();
    requireNoAllocs("BM_FireThroughputSmall", allocsNow() - before, fired);
    fires += fired;
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.counters["allocs_per_event"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_FireThroughputSmall)->Arg(10000)->Arg(100000)->Arg(1000000);

// Fire throughput with an actor-sized capture (~32 bytes: a this-pointer
// plus a stats blob, the shape TpuDevice/transport completions produce).
// This is the capture size where the seed's std::function falls off its
// small-object optimization and the indexed engine must stay inline.
void BM_FireThroughputActorSized(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  struct ActorPayload {
    std::uint64_t* sink;
    std::uint64_t a, b, c;
  };
  std::uint64_t fires = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Pcg32 rng(99);
    auto sim = std::make_unique<Simulator>();
    for (int i = 0; i < n; ++i) {
      ActorPayload p{&sink, static_cast<std::uint64_t>(i), 7, 9};
      sim->schedule(kSimEpoch + microseconds(rng.nextBounded(1u << 20)),
                    [p] { *p.sink += p.a + p.b + p.c; });
    }
    const std::uint64_t before = allocsNow();
    state.ResumeTiming();
    const std::size_t fired = sim->run();
    state.PauseTiming();
    requireNoAllocs("BM_FireThroughputActorSized", allocsNow() - before,
                    fired);
    fires += fired;
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.counters["allocs_per_event"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_FireThroughputActorSized)->Arg(10000)->Arg(100000)->Arg(1000000);

// Hold pattern: with `depth` events pending, alternately schedule one and
// fire one, so the heap stays at a constant depth. Measures the combined
// schedule+fire cost as a function of pending-set size.
void BM_HoldAtDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  constexpr int kOpsPerIter = 1024;
  Pcg32 rng(5);
  Simulator sim;
  std::uint64_t sink = 0;
  for (int i = 0; i < depth; ++i) {
    sim.scheduleAfter(microseconds(rng.nextBounded(1u << 20) + 1),
                      [&sink] { ++sink; });
  }
  for (auto _ : state) {
    for (int i = 0; i < kOpsPerIter; ++i) {
      sim.scheduleAfter(microseconds(rng.nextBounded(1u << 20) + 1),
                        [&sink] { ++sink; });
      sim.step();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_HoldAtDepth)->Arg(10000)->Arg(100000)->Arg(1000000);

// Cancel-heavy churn: schedule two, cancel one, fire one — the pod-lifecycle
// pattern (every in-flight frame event is cancelled when its pod dies). The
// seed engine tombstones cancels and rediscovers them at pop time; the
// indexed heap removes in place.
void BM_CancelHeavyChurn(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  constexpr int kOpsPerIter = 1024;
  Pcg32 rng(17);
  Simulator sim;
  std::uint64_t sink = 0;
  for (int i = 0; i < depth; ++i) {
    sim.scheduleAfter(microseconds(rng.nextBounded(1u << 20) + 1),
                      [&sink] { ++sink; });
  }
  for (auto _ : state) {
    for (int i = 0; i < kOpsPerIter; ++i) {
      EventId victim = sim.scheduleAfter(
          microseconds(rng.nextBounded(1u << 20) + 1), [&sink] { ++sink; });
      sim.scheduleAfter(microseconds(rng.nextBounded(1u << 20) + 1),
                        [&sink] { ++sink; });
      sim.cancel(victim);
      sim.step();
    }
  }
  benchmark::DoNotOptimize(sink);
  // One schedule+schedule+cancel+fire bundle counts as one item.
  state.SetItemsProcessed(state.iterations() * kOpsPerIter);
}
BENCHMARK(BM_CancelHeavyChurn)->Arg(10000)->Arg(100000);

// Periodic-heavy: many PeriodicTasks firing every tick — the camera / poller
// / sampler workload. The seed re-allocates a fresh closure per period; the
// overhauled engine re-arms the existing event slot into the delay lane of
// its period. An allocation during the timed run aborts.
void BM_PeriodicHeavy(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  std::uint64_t fires = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<Simulator>();
    std::uint64_t sink = 0;
    std::vector<std::unique_ptr<PeriodicTask>> running;
    running.reserve(static_cast<std::size_t>(tasks));
    for (int i = 0; i < tasks; ++i) {
      running.push_back(std::make_unique<PeriodicTask>(
          *sim, microseconds(100 + i % 7), [&sink] { ++sink; }));
      running.back()->start();
    }
    const std::uint64_t before = allocsNow();
    state.ResumeTiming();
    const std::size_t fired = sim->runFor(milliseconds(100));
    state.PauseTiming();
    requireNoAllocs("BM_PeriodicHeavy", allocsNow() - before, fired);
    fires += fired;
    benchmark::DoNotOptimize(sink);
    running.clear();
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.counters["allocs_per_event"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_PeriodicHeavy)->Arg(16)->Arg(256);

// Lane rebind in steady state: `chains` events, each re-arming itself when
// it fires, so the pending count stays constant. Every 1 ms epoch the
// re-arms switch to the next four of kRebindDelays, three times as many
// distinct delays as the engine has lanes (near ones, and one far one in
// every eleven): lanes bound in one epoch drain in a later one and rebind
// to new delays, and the delays that find every lane busy fall back to the
// heaps. Warm-up sizes the slot arena and both heaps to the pending count
// and then runs 100 ms, so any allocation in the timed phase is the lanes'
// own bookkeeping, and aborts.
constexpr std::size_t kRebindDelayCount = 3 * Simulator::laneCount();

constexpr std::array<SimDuration, kRebindDelayCount> rebindDelays() {
  std::array<SimDuration, kRebindDelayCount> delays{};
  for (std::size_t i = 0; i < kRebindDelayCount; ++i) {
    delays[i] = i % 11 == 10 ? milliseconds(64) + microseconds(7 * i)
                             : microseconds(40 + 61 * i);
  }
  return delays;
}
constexpr std::array<SimDuration, kRebindDelayCount> kRebindDelays =
    rebindDelays();

void BM_LaneRebindSteadyAllocFree(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  Simulator sim;
  // Size the arena and both heaps: `chains` distinct near delays, then as
  // many distinct far ones, fill every lane and overflow into each heap.
  std::vector<EventId> sizing;
  for (int i = 0; i < chains; ++i) {
    sizing.push_back(sim.scheduleAfter(nanoseconds(i + 1), [] {}));
    sizing.push_back(sim.scheduleAfter(
        Simulator::farThreshold() + nanoseconds(i), [] {}));
  }
  for (EventId id : sizing) sim.cancel(id);
  for (int i = 0; i < chains; ++i) {
    const std::size_t which = static_cast<std::size_t>(i % 4);
    sim.scheduleAfter(microseconds(i % 997), [&sim, which] {
      const auto epoch = static_cast<std::size_t>(
          sim.now().time_since_epoch().count() / milliseconds(1).count());
      sim.rearmCurrentAfter(
          kRebindDelays[(epoch * 4 + which) % kRebindDelayCount]);
    });
  }
  sim.runFor(milliseconds(100));
  std::uint64_t fires = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocsNow();
    const std::size_t fired = sim.runFor(milliseconds(10));
    requireNoAllocs("BM_LaneRebindSteadyAllocFree", allocsNow() - before,
                    fired);
    fires += fired;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.counters["allocs_per_event"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_LaneRebindSteadyAllocFree)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace microedge
