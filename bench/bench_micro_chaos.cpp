// google-benchmark microbenchmark for the reliability layer's overhead and
// behaviour under faults.
//
// Three operating points of the same closed-loop stream fixture:
//   off    — seed configuration: no deadlines, no injector (the reference
//            frames/s of bench_micro_dataplane);
//   idle   — deadlines + breaker + an ARMED injector whose events lie far in
//            the future: what a production run pays when nothing breaks.
//            BM_ChaosSteadyAllocFree asserts this point allocates NOTHING
//            per steady-state frame (the deadline timer schedule/cancel pair
//            rides the event arena);
//   active — hang + transport-loss + latency-spike windows firing mid-run:
//            frames time out, shed, fail over; throughput and p99 of the
//            *completed* frames show graceful degradation, not collapse.
//
// Emit machine-readable results with BENCH_CHAOS=1 bench/run_bench.sh
// (-> BENCH_chaos.json). Like the other micro benches, the binary overrides
// operator new/delete with a counting allocator, so it must not share a
// binary with anything else.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "count_allocs.hpp"
#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"
#include "sim/fault_injector.hpp"
#include "testbed/degradation.hpp"
#include "util/strings.hpp"

namespace microedge {
namespace {

constexpr int kTRpis = 8;
constexpr int kVRpis = 8;
constexpr int kStreams = 16;

std::string indexName(const char* prefix, int i) {
  return strCat(prefix, i < 10 ? "0" : "", i);
}

enum class Mode { kOff, kIdle, kActive };

struct Stream {
  TpuClient* client = nullptr;
  std::uint64_t* terminated = nullptr;  // the fixture's count, all streams
  std::uint64_t remaining = 0;
  std::uint64_t completed = 0;
  std::vector<double> latenciesUs;  // completed frames only; pre-reserved

  void pump() {
    if (remaining == 0) return;
    --remaining;
    (void)client->invoke([this](const FrameBreakdown& b) {
      ++*terminated;
      if (b.outcome == FrameOutcome::kCompleted) {
        ++completed;
        if (latenciesUs.size() < latenciesUs.capacity()) {
          latenciesUs.push_back(
              static_cast<double>(b.endToEnd().count()) / 1e3);
        }
      }
      pump();
    });
  }
};

struct Fixture {
  ModelRegistry zoo;
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ClusterTopology topo;
  DataPlane dataPlane;
  std::vector<std::unique_ptr<TpuClient>> clients;
  std::vector<Stream> streams;
  std::uint64_t terminated = 0;  // frames that reached a terminal outcome

  static TopologySpec spec() {
    TopologySpec s;
    s.vRpiCount = kVRpis;
    s.tRpiCount = kTRpis;
    return s;
  }

  explicit Fixture(Mode mode)
      : zoo(zoo::standardZoo()), topo(sharded, zoo, spec()),
        dataPlane(sharded, topo, zoo) {
    LbConfig lb;
    for (int t = 0; t < kTRpis; ++t) {
      const std::string tpuId = indexName("tpu-", t);
      LoadCommand load{tpuId, {zoo::kMobileNetV1}, {}};
      if (!dataPlane.executeLoad(load).isOk()) std::abort();
      lb.weights.push_back(LbWeight{internTpu(tpuId), 100});
    }
    sim.run();
    streams.resize(kStreams);
    for (int i = 0; i < kStreams; ++i) {
      TpuClient::Config config;
      config.clientNode = indexName("vrpi-", i % kVRpis);
      config.model = zoo::kMobileNetV1;
      if (mode != Mode::kOff) {
        config.frameDeadline = milliseconds(250);
        config.maxFailovers = 1;
      }
      clients.push_back(dataPlane.makeClient(std::move(config)));
      if (!clients.back()->configureLb(lb).isOk()) std::abort();
      streams[i].client = clients.back().get();
      streams[i].terminated = &terminated;
    }
    if (mode != Mode::kOff) {
      FaultPlan plan;
      plan.seed = 99;
      if (mode == Mode::kActive) {
        // Rolling 50 ms fault windows every 250 ms of simulated time for
        // 1000 s: hang one TPU, drop 20% of messages, then 4x latency.
        for (int w = 0; w < 4000; ++w) {
          SimDuration at = milliseconds(100 + w * 250);
          switch (w % 3) {
            case 0:
              plan.events.push_back(
                  FaultEvent{at, FaultKind::kTpuHang,
                             indexName("tpu-", w % kTRpis),
                             milliseconds(50), 0.0});
              break;
            case 1:
              plan.events.push_back(FaultEvent{
                  at, FaultKind::kTransportLoss, "", milliseconds(50), 0.2});
              break;
            default:
              plan.events.push_back(FaultEvent{
                  at, FaultKind::kLatencySpike, "", milliseconds(50), 4.0});
          }
        }
      } else {
        // Armed but idle: the whole machinery is wired, the first event
        // lies beyond any measured horizon.
        plan.events.push_back(FaultEvent{seconds(86400), FaultKind::kTpuHang,
                                         "tpu-00", milliseconds(100), 0.0});
      }
      dataPlane.armFaults(plan);
    }
  }

  // Runs `frames` more frames per stream and returns how many frames have
  // terminated so far. Steps the simulator only until this run's frames
  // have terminated, so the rest of the fault plan stays pending for the
  // next run.
  std::uint64_t run(std::uint64_t frames) {
    const std::uint64_t target = terminated + frames * streams.size();
    for (Stream& s : streams) s.remaining = frames;
    for (Stream& s : streams) s.pump();
    while (terminated < target && sim.step()) {
    }
    return terminated;
  }
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

// Frames/s + p99 completion latency at one operating point. items_per_second
// counts TERMINATED frames (completed + shed/timed out/...): the harness
// cost per frame is what is being measured; completed_ratio and p99 show
// what the faults did to the traffic.
void BM_ChaosFrames(benchmark::State& state) {
  const Mode mode = static_cast<Mode>(state.range(0));
  const std::uint64_t framesPerStream = 2000;
  std::uint64_t frames = 0;
  std::uint64_t completed = 0;
  std::uint64_t allocs = 0;
  std::vector<double> latencies;
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = std::make_unique<Fixture>(mode);
    // Warm-up: pools, rings, event arena, latency buffers.
    const std::uint64_t terminatedBefore = fx->run(64);
    std::uint64_t completedBefore = 0;
    for (Stream& s : fx->streams) {
      completedBefore += s.completed;
      s.latenciesUs.clear();
      s.latenciesUs.reserve(framesPerStream);
    }
    std::uint64_t before = allocsNow();
    state.ResumeTiming();
    std::uint64_t total = fx->run(framesPerStream);
    state.PauseTiming();
    allocs += allocsNow() - before;
    frames += total - terminatedBefore;
    for (Stream& s : fx->streams) {
      completed += s.completed;
      latencies.insert(latencies.end(), s.latenciesUs.begin(),
                       s.latenciesUs.end());
    }
    completed -= completedBefore;
    fx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["allocs_per_frame"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(frames ? frames : 1));
  state.counters["completed_ratio"] =
      benchmark::Counter(static_cast<double>(completed) /
                         static_cast<double>(frames ? frames : 1));
  state.counters["p99_us"] = benchmark::Counter(percentile(latencies, 0.99));
}
BENCHMARK(BM_ChaosFrames)
    ->Arg(static_cast<int>(Mode::kOff))
    ->Arg(static_cast<int>(Mode::kIdle))
    ->Arg(static_cast<int>(Mode::kActive));

// The acceptance invariant, asserted: with deadlines configured and the
// injector compiled in, armed and idle, a steady-state frame performs ZERO
// heap allocations. Aborts on regression (mirrors
// BM_DataplaneSteadyAllocFree, which guards the seed path).
void BM_ChaosSteadyAllocFree(benchmark::State& state) {
  const std::uint64_t framesPerStream = 500;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = std::make_unique<Fixture>(Mode::kIdle);
    const std::uint64_t terminatedBefore = fx->run(64);
    for (Stream& s : fx->streams) {
      s.latenciesUs.clear();
      s.latenciesUs.reserve(framesPerStream);
    }
    std::uint64_t before = allocsNow();
    state.ResumeTiming();
    std::uint64_t total = fx->run(framesPerStream);
    state.PauseTiming();
    std::uint64_t delta = allocsNow() - before;
    if (delta != 0) {
      std::fprintf(stderr,
                   "FATAL: %llu heap allocations in steady-state frame path "
                   "with deadlines + armed-idle injector (%llu frames) — "
                   "reliability must be allocation-free when nothing fails\n",
                   static_cast<unsigned long long>(delta),
                   static_cast<unsigned long long>(total - terminatedBefore));
      std::abort();
    }
    frames += total - terminatedBefore;
    fx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["allocs_per_frame"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_ChaosSteadyAllocFree);

// --- Overload axis -----------------------------------------------------------
// Open-loop offered load at 1x/1.5x/2x of analytic capacity, across the
// overload-control policies (DESIGN.md §14). Where the chaos fixture above
// is closed-loop (each completion pumps the next frame, so offered load
// self-limits), these streams submit on a fixed PeriodicTask clock — the
// only way to actually oversubscribe the devices and see what each policy
// does with the excess. BENCH_OVERLOAD=1 bench/run_bench.sh emits the grid
// to BENCH_overload.json; EXPERIMENTS.md plots the goodput-vs-offered-load
// curves from it.
//
//   none    — HEAD's seed behaviour (no deadline): every frame queues and
//             eventually completes, but past 1x the queue grows without
//             bound and completions arrive too late to meet the nominal
//             deadline — goodput collapses;
//   shed    — deadline + arrival shedding: devices stay busy, goodput holds,
//             but the excess still costs a slab slot and a request hop
//             before being dropped at the service;
//   admit   — per-frame admission ledger: the excess is rejected at submit
//             for the price of a stack breakdown;
//   degrade — admission + fps-ladder degradation: the offered load itself
//             steps down to the sustainable rung, so the steady state has
//             (almost) nothing left to reject.

enum class Policy { kNone, kShed, kAdmit, kDegrade };

constexpr int kOvTpus = 4;
constexpr int kOvStreams = 8;
constexpr int kOvDeadlineMs = 60;

const char* policyName(Policy p) {
  switch (p) {
    case Policy::kNone: return "none";
    case Policy::kShed: return "shed";
    case Policy::kAdmit: return "admit";
    case Policy::kDegrade: return "degrade";
  }
  return "?";
}

struct OverloadStream {
  TpuClient* client = nullptr;
  SimDuration nominalDeadline{};
  std::unique_ptr<PeriodicTask> task;
  std::unique_ptr<StreamRateControl> rate;
  std::unique_ptr<StreamDegrader> degrader;
  std::uint64_t terminated = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadlineMet = 0;  // completed within the NOMINAL deadline

  void onDone(const FrameBreakdown& b) {
    ++terminated;
    if (b.outcome == FrameOutcome::kCompleted) {
      ++completed;
      // Policy kNone has no configured deadline, so "goodput" is judged
      // against the nominal bound the other policies enforce.
      if (b.endToEnd() <= nominalDeadline) ++deadlineMet;
    }
    if (degrader) degrader->onFrame();
  }
};

struct OverloadFixture {
  ModelRegistry zoo;
  ShardedSim sharded{1, NetworkConfig{}.baseLatency};
  Simulator& sim = sharded.shardSim(0);
  ClusterTopology topo;
  DataPlane dataPlane;
  std::vector<std::unique_ptr<TpuClient>> clients;
  std::vector<std::unique_ptr<OverloadStream>> streams;
  double capacityFps = 0;  // analytic: kOvTpus / inference latency
  double offeredFps = 0;

  static TopologySpec spec() {
    TopologySpec s;
    s.vRpiCount = kOvStreams;
    s.tRpiCount = kOvTpus;
    return s;
  }

  OverloadFixture(Policy policy, double loadFactor)
      : zoo(zoo::standardZoo()), topo(sharded, zoo, spec()),
        dataPlane(sharded, topo, zoo) {
    LbConfig lb;
    for (int t = 0; t < kOvTpus; ++t) {
      const std::string tpuId = indexName("tpu-", t);
      LoadCommand load{tpuId, {zoo::kMobileNetV1}, {}};
      if (!dataPlane.executeLoad(load).isOk()) std::abort();
      // Weight doubles as the admission capacity line: each stream owns
      // 1/kOvStreams of every TPU — 4 x 125 milli == half a device.
      lb.weights.push_back(LbWeight{internTpu(tpuId), 1000 / kOvStreams});
    }
    sim.run();
    const SimDuration inference = zoo.at(zoo::kMobileNetV1).inferenceLatency;
    capacityFps = static_cast<double>(kOvTpus) * 1e9 /
                  static_cast<double>(inference.count());
    offeredFps = loadFactor * capacityFps;
    const double perStreamFps = offeredFps / kOvStreams;
    const SimDuration period = framePeriod(perStreamFps);

    for (int i = 0; i < kOvStreams; ++i) {
      TpuClient::Config config;
      config.clientNode = indexName("vrpi-", i);
      config.model = zoo::kMobileNetV1;
      if (policy != Policy::kNone) {
        config.frameDeadline = milliseconds(kOvDeadlineMs);
        config.maxFailovers = 1;
      }
      if (policy == Policy::kAdmit || policy == Policy::kDegrade) {
        config.admission.enabled = true;
      }
      clients.push_back(dataPlane.makeClient(std::move(config)));
      if (!clients.back()->configureLb(lb).isOk()) std::abort();

      auto stream = std::make_unique<OverloadStream>();
      stream->client = clients.back().get();
      stream->nominalDeadline = milliseconds(kOvDeadlineMs);
      OverloadStream* raw = stream.get();
      stream->task = std::make_unique<PeriodicTask>(sim, period, [raw] {
        (void)raw->client->invoke(
            [raw](const FrameBreakdown& b) { raw->onDone(b); });
      });
      if (policy == Policy::kDegrade) {
        DegradationConfig degrade;
        degrade.enabled = true;
        degrade.windowFrames = 30;
        degrade.stepDownPressure = 0.25;
        degrade.sustainWindows = 2;
        degrade.coolDownWindows = 4;
        stream->rate = std::make_unique<StreamRateControl>(*raw->task, period);
        stream->degrader = std::make_unique<StreamDegrader>(
            *raw->client, *stream->rate, degrade);
      }
      // Staggered phases, same as the sharded harness: no two submissions
      // share a timestamp.
      stream->task->startAt(sim.now() + (period * (i + 1)) / (kOvStreams + 1));
      streams.push_back(std::move(stream));
    }
  }

  void runFor(SimDuration horizon) { sim.runFor(horizon); }

  std::uint64_t terminated() const {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s->terminated;
    return n;
  }
  std::uint64_t deadlineMet() const {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s->deadlineMet;
    return n;
  }
  std::uint64_t outcome(FrameOutcome o) const {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s->client->outcomeCount(o);
    return n;
  }
  std::uint64_t degradeDowns() const {
    std::uint64_t n = 0;
    for (const auto& s : streams) {
      if (s->degrader) n += s->degrader->stepDowns();
    }
    return n;
  }
};

// Goodput (frames completed within the nominal deadline per simulated
// second) across the policy x load grid. items_per_second is simulation
// throughput; the policy comparison lives in the counters.
void BM_OverloadGoodput(benchmark::State& state) {
  const Policy policy = static_cast<Policy>(state.range(0));
  const double loadFactor = static_cast<double>(state.range(1)) / 100.0;
  const double measureSeconds = 8.0;
  std::uint64_t frames = 0;
  double goodputFps = 0, capacityFps = 0, offeredFps = 0;
  std::uint64_t admissionRejected = 0, timedOut = 0, shed = 0, downs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = std::make_unique<OverloadFixture>(policy, loadFactor);
    // Warmup: pools and queues reach steady state; degradation settles on
    // its rung.
    fx->runFor(secondsF(4.0));
    const std::uint64_t metBefore = fx->deadlineMet();
    const std::uint64_t terminatedBefore = fx->terminated();
    state.ResumeTiming();
    fx->runFor(secondsF(measureSeconds));
    state.PauseTiming();
    const std::uint64_t met = fx->deadlineMet() - metBefore;
    frames += fx->terminated() - terminatedBefore;
    goodputFps = static_cast<double>(met) / measureSeconds;
    capacityFps = fx->capacityFps;
    offeredFps = fx->offeredFps;
    admissionRejected = fx->outcome(FrameOutcome::kAdmissionRejected);
    timedOut = fx->outcome(FrameOutcome::kTimedOut);
    shed = fx->outcome(FrameOutcome::kShed);
    downs = fx->degradeDowns();
    fx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.SetLabel(strCat(policyName(policy), "@",
                        static_cast<int>(loadFactor * 100), "%"));
  state.counters["goodput_fps"] = benchmark::Counter(goodputFps);
  state.counters["capacity_fps"] = benchmark::Counter(capacityFps);
  state.counters["offered_fps"] = benchmark::Counter(offeredFps);
  state.counters["goodput_ratio"] =
      benchmark::Counter(capacityFps > 0 ? goodputFps / capacityFps : 0);
  state.counters["admission_rejected"] =
      benchmark::Counter(static_cast<double>(admissionRejected));
  state.counters["timed_out"] =
      benchmark::Counter(static_cast<double>(timedOut));
  state.counters["shed"] = benchmark::Counter(static_cast<double>(shed));
  state.counters["degrade_downs"] =
      benchmark::Counter(static_cast<double>(downs));
}
BENCHMARK(BM_OverloadGoodput)
    ->ArgsProduct({{static_cast<int>(Policy::kNone),
                    static_cast<int>(Policy::kShed),
                    static_cast<int>(Policy::kAdmit),
                    static_cast<int>(Policy::kDegrade)},
                   {100, 150, 200}});

// The admission fast path must stay allocation-free even while REJECTING at
// 2x overload: a rejection is a stack breakdown + two counters, no slab
// slot, no transport event. Aborts on regression.
void BM_OverloadAdmissionAllocFree(benchmark::State& state) {
  std::uint64_t frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = std::make_unique<OverloadFixture>(Policy::kAdmit, 2.0);
    fx->runFor(secondsF(2.0));  // warm pools/queues to steady-state size
    const std::uint64_t terminatedBefore = fx->terminated();
    const std::uint64_t before = allocsNow();
    state.ResumeTiming();
    fx->runFor(secondsF(4.0));
    state.PauseTiming();
    const std::uint64_t delta = allocsNow() - before;
    const std::uint64_t rejected =
        fx->outcome(FrameOutcome::kAdmissionRejected);
    if (delta != 0) {
      std::fprintf(stderr,
                   "FATAL: %llu heap allocations on the admission fast path "
                   "at 2x overload (%llu frames, %llu rejected) — per-frame "
                   "admission must be allocation-free\n",
                   static_cast<unsigned long long>(delta),
                   static_cast<unsigned long long>(fx->terminated() -
                                                   terminatedBefore),
                   static_cast<unsigned long long>(rejected));
      std::abort();
    }
    if (rejected == 0) {
      std::fprintf(stderr,
                   "FATAL: 2x overload produced zero admission rejections — "
                   "the guard is not exercising the reject path\n");
      std::abort();
    }
    frames += fx->terminated() - terminatedBefore;
    fx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["allocs_per_frame"] = benchmark::Counter(0.0);
}
BENCHMARK(BM_OverloadAdmissionAllocFree);

}  // namespace
}  // namespace microedge
