// google-benchmark microbenchmark for the per-frame data-plane fast path:
// TpuClient -> LB -> transport -> TPU Service -> device -> response ->
// completion, end to end through the simulator.
//
// Every reproduced figure (Fig. 5/6, the ablations) pushes millions of
// frames through this exact pipeline, so its per-frame overhead bounds how
// much simulated traffic a wall-second can replay. The benchmark drives
// 1..1024 closed-loop camera streams (one outstanding frame each, the next
// frame submitted from the completion callback) over an 8-tRPi cluster with
// the model pre-loaded everywhere — the steady state the figure harnesses
// sit in. BM_DataplaneFanIn is the high-fan-in companion: each client
// submits its whole fan-in at one instant as that many invoke() calls, so
// deep device FIFOs and many frames in flight per client are measured too.
//
// Like bench_micro_sim, the binary overrides global operator new/delete with
// a counting allocator so "zero heap allocations per steady-state frame" is
// measured, not assumed: BM_DataplaneFrames reports allocs_per_frame, and
// BM_DataplaneSteadyAllocFree and BM_DataplaneFanInAllocFree hard-abort on
// any steady-state allocation (the CI bench smoke runs both, guarding the
// property against regressions).
//
// Emit machine-readable results with bench/run_bench.sh
// (-> BENCH_dataplane.json).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"
#include "util/strings.hpp"

// --- Counting allocator ------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}

void* operator new(std::size_t size) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace microedge {
namespace {

std::uint64_t allocsNow() {
  return g_allocCount.load(std::memory_order_relaxed);
}

constexpr int kTRpis = 8;
constexpr int kVRpis = 8;

// Matches ClusterTopology's node/TPU naming ("tpu-00", "vrpi-03", ...).
std::string indexName(const char* prefix, int i) {
  return strCat(prefix, i < 10 ? "0" : "", i);
}

// One closed-loop camera stream: exactly one frame outstanding; the
// completion callback submits the next frame until the budget drains.
struct Stream {
  TpuClient* client = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t completed = 0;

  void pump() {
    if (remaining == 0) return;
    --remaining;
    (void)client->invoke([this](const FrameBreakdown&) {
      ++completed;
      pump();
    });
  }
};

// Cluster fixture shared by both benchmarks: 8 tRPis (1 TPU each) + 8
// vRPis, mobilenet-v1 resident on every TPU, `streams` clients spread
// round-robin over the vRPis, each fanning out over all 8 TPUs.
struct Fixture {
  ModelRegistry zoo;
  Simulator sim;
  ClusterTopology topo;
  DataPlane dataPlane;
  std::vector<std::unique_ptr<TpuClient>> clients;
  std::vector<Stream> streams;

  static TopologySpec spec() {
    TopologySpec s;
    s.vRpiCount = kVRpis;
    s.tRpiCount = kTRpis;
    return s;
  }

  explicit Fixture(int streamCount)
      : zoo(zoo::standardZoo()), topo(sim, zoo, spec()),
        dataPlane(sim, topo, zoo) {
    LbConfig lb;
    for (int t = 0; t < kTRpis; ++t) {
      const std::string tpuId = indexName("tpu-", t);
      LoadCommand load{tpuId, {zoo::kMobileNetV1}, {}};
      if (!dataPlane.executeLoad(load).isOk()) std::abort();
      lb.weights.push_back(LbWeight{internTpu(tpuId), 100});
    }
    sim.run();
    streams.resize(streamCount);
    for (int i = 0; i < streamCount; ++i) {
      clients.push_back(dataPlane.makeClient(indexName("vrpi-", i % kVRpis),
                                             zoo::kMobileNetV1));
      if (!clients.back()->configureLb(lb).isOk()) std::abort();
      streams[i].client = clients.back().get();
    }
  }

  // Runs `frames` frames per stream to completion; returns total completed.
  std::uint64_t run(std::uint64_t frames) {
    for (Stream& s : streams) s.remaining = frames;
    for (Stream& s : streams) s.pump();
    sim.run();
    std::uint64_t total = 0;
    for (Stream& s : streams) total += s.completed;
    return total;
  }
};

// Frames/sec end-to-end at 1..64 streams. items_per_second is the headline
// number; allocs_per_frame tracks the heap traffic of the measured phase
// (after a warm-up batch that sizes the pools, rings and the event arena).
void BM_DataplaneFrames(benchmark::State& state) {
  const int streamCount = static_cast<int>(state.range(0));
  const std::uint64_t framesPerStream = 2000;
  std::uint64_t frames = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = std::make_unique<Fixture>(streamCount);
    fx->run(64);  // warm-up: size pools/rings/event arena, pay swap costs
    std::uint64_t completedBefore = 0;
    for (Stream& s : fx->streams) completedBefore += s.completed;
    std::uint64_t before = allocsNow();
    state.ResumeTiming();
    std::uint64_t total = fx->run(framesPerStream);
    state.PauseTiming();
    allocs += allocsNow() - before;
    frames += total - completedBefore;
    fx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["allocs_per_frame"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(frames ? frames : 1));
}
BENCHMARK(BM_DataplaneFrames)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

// One high-fan-in ingest point: the client submits `fanIn` frames at a
// single instant as fanIn invoke() calls, re-submitting the next wave when
// the previous one fully drains.
struct FanInStream {
  TpuClient* client = nullptr;
  std::size_t fanIn = 0;
  std::uint64_t remainingWaves = 0;
  std::uint64_t completed = 0;
  std::size_t inFlight = 0;

  void pump() {
    if (remainingWaves == 0) return;
    --remainingWaves;
    inFlight = fanIn;
    auto done = [this](const FrameBreakdown&) {
      ++completed;
      if (--inFlight == 0) pump();
    };
    for (std::size_t i = 0; i < fanIn; ++i) {
      if (!client->invoke(done).isOk()) std::abort();
    }
  }
};

// Shared driver: one client per vRPi, each pumping waves of `fanIn` frames.
// Construction runs a warm-up that sizes pools, rings and the event arena,
// so run() is the steady state.
struct FanInHarness {
  Fixture fx;
  std::vector<FanInStream> streams;

  explicit FanInHarness(std::size_t fanIn) : fx(kVRpis) {
    streams.resize(fx.clients.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
      streams[i].client = fx.clients[i].get();
      streams[i].fanIn = fanIn;
    }
    // Two warm-up waves: the second re-submits from inside a completion
    // callback — the steady-state shape, where the in-flight event and
    // context of the finishing frame overlap the next wave's acquisition —
    // so every pool/arena/ring pays its high-water growth here.
    run(2);
  }

  // Runs `waves` waves per client to completion; returns frames completed.
  std::uint64_t run(std::uint64_t waves) {
    std::uint64_t before = 0;
    for (FanInStream& s : streams) before += s.completed;
    for (FanInStream& s : streams) s.remainingWaves = waves;
    for (FanInStream& s : streams) s.pump();
    fx.sim.run();
    std::uint64_t after = 0;
    for (FanInStream& s : streams) after += s.completed;
    return after - before;
  }
};

void BM_DataplaneFanIn(benchmark::State& state) {
  const std::size_t fanIn = static_cast<std::size_t>(state.range(0));
  // Comparable work per iteration across fan-ins: ~128k frames total.
  const std::uint64_t waves = 16384 / fanIn;
  std::uint64_t frames = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto harness = std::make_unique<FanInHarness>(fanIn);
    const std::uint64_t before = allocsNow();
    state.ResumeTiming();
    const std::uint64_t total = harness->run(waves);
    state.PauseTiming();
    allocs += allocsNow() - before;
    frames += total;
    harness.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["allocs_per_frame"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(frames ? frames : 1));
}
BENCHMARK(BM_DataplaneFanIn)->ArgName("fanin")->Arg(64)->Arg(256)->Arg(1024);

// The zero-allocation property itself, asserted: after warm-up, a full
// steady-state batch must not touch the heap at all. Aborting (rather than
// SkipWithError) makes the CI bench smoke fail hard on regression.
void BM_DataplaneSteadyAllocFree(benchmark::State& state) {
  const int streamCount = static_cast<int>(state.range(0));
  const std::uint64_t framesPerStream = 500;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = std::make_unique<Fixture>(streamCount);
    fx->run(64);
    std::uint64_t completedBefore = 0;
    for (Stream& s : fx->streams) completedBefore += s.completed;
    std::uint64_t before = allocsNow();
    state.ResumeTiming();
    std::uint64_t total = fx->run(framesPerStream);
    state.PauseTiming();
    std::uint64_t delta = allocsNow() - before;
    if (delta != 0) {
      std::fprintf(stderr,
                   "FATAL: %llu heap allocations in steady-state frame path "
                   "(%d streams, %llu frames) — the data plane must be "
                   "allocation-free\n",
                   static_cast<unsigned long long>(delta), streamCount,
                   static_cast<unsigned long long>(total - completedBefore));
      std::abort();
    }
    frames += total - completedBefore;
    fx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["allocs_per_frame"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_DataplaneSteadyAllocFree)->Arg(1)->Arg(16)->Arg(64);

// Same hard assertion at high fan-in: a steady-state wave of fanIn
// invoke() calls per client — deep device FIFOs and many contexts in
// flight — must not touch the heap either.
void BM_DataplaneFanInAllocFree(benchmark::State& state) {
  const std::size_t fanIn = static_cast<std::size_t>(state.range(0));
  std::uint64_t frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto harness = std::make_unique<FanInHarness>(fanIn);
    const std::uint64_t before = allocsNow();
    state.ResumeTiming();
    const std::uint64_t total = harness->run(8);
    state.PauseTiming();
    const std::uint64_t delta = allocsNow() - before;
    if (delta != 0) {
      std::fprintf(stderr,
                   "FATAL: %llu heap allocations in steady-state fan-in path "
                   "(fan-in %zu, %llu frames) — the data plane must be "
                   "allocation-free\n",
                   static_cast<unsigned long long>(delta), fanIn,
                   static_cast<unsigned long long>(total));
      std::abort();
    }
    frames += total;
    harness.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["allocs_per_frame"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_DataplaneFanInAllocFree)->Arg(64)->Arg(256);

}  // namespace
}  // namespace microedge

BENCHMARK_MAIN();
