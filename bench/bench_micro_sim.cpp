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
//     pollers, samplers).
//
// The binary also overrides global operator new/delete with a counting
// allocator so the "zero heap allocations per fired event for inline-sized
// callbacks" property is measured, not assumed: fire benchmarks report an
// `allocs_per_event` counter.
//
// Emit machine-readable results with bench/run_bench.sh (-> BENCH_sim.json).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "count_allocs.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace microedge {
namespace {

// Fire throughput with a minimal capture (one pointer): schedule `n` events
// at scattered timestamps, then time the drain. Allocations during run() are
// reported per fired event; the schedule phase is untimed.
void BM_FireThroughputSmall(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t fires = 0;
  std::uint64_t allocs = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Pcg32 rng(1234);
    auto sim = std::make_unique<Simulator>();
    for (int i = 0; i < n; ++i) {
      sim->schedule(kSimEpoch + microseconds(rng.nextBounded(1u << 20)),
                    [&sink] { ++sink; });
    }
    std::uint64_t before = allocsNow();
    state.ResumeTiming();
    fires += sim->run();
    state.PauseTiming();
    allocs += allocsNow() - before;
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(fires ? fires : 1));
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
  std::uint64_t allocs = 0;
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
    std::uint64_t before = allocsNow();
    state.ResumeTiming();
    fires += sim->run();
    state.PauseTiming();
    allocs += allocsNow() - before;
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(fires ? fires : 1));
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
// overhauled engine re-arms the existing event slot.
void BM_PeriodicHeavy(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  std::uint64_t fires = 0;
  std::uint64_t allocs = 0;
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
    std::uint64_t before = allocsNow();
    state.ResumeTiming();
    fires += sim->runFor(milliseconds(100));
    state.PauseTiming();
    allocs += allocsNow() - before;
    benchmark::DoNotOptimize(sink);
    running.clear();
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(fires ? fires : 1));
}
BENCHMARK(BM_PeriodicHeavy)->Arg(16)->Arg(256);

}  // namespace
}  // namespace microedge
