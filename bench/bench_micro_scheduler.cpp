// google-benchmark microbenchmarks for the control-plane hot paths:
//   - Algorithm 1 admission at pool sizes up to 65536. Admission walks the
//     pool linearly (TpuPool::scan), so one admission is O(M); the pools the
//     system packs hold at most 24 TPUs, and the large sizes keep the cost
//     of that linear walk visible;
//   - admit/release churn (steady-state pool turnover);
//   - workload-partitioned admission;
//   - smooth-WRR routing;
//   - co-compile planning;
//   - DES event throughput;
//   - YAML pod-spec parsing.
//
// Setup (pool construction, pre-fill) happens once per pool size outside the
// timing loop; the measured region is a steady-state admit+release pair so
// pool state is identical across iterations. No PauseTiming/ResumeTiming —
// its per-iteration overhead (~100ns+) would dominate a small-pool admission.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "dataplane/wrr.hpp"
#include "models/zoo.hpp"
#include "orch/spec.hpp"
#include "sim/simulator.hpp"

namespace microedge {
namespace {

// Builds a pool of `tpus` TPUs with all but the last filled to 900 milli, so
// a 500-milli First-Fit admission must skip M-1 candidates: the worst case
// for Algorithm 1's linear scan, which visits every TPU once.
TpuPool makeFilledPool(int tpus, const ModelRegistry& zoo) {
  TpuPool pool;
  for (int i = 0; i < tpus; ++i) {
    Status s = pool.addTpu("tpu-" + std::to_string(i), 6.9);
    benchmark::DoNotOptimize(&s);
  }
  AdmissionConfig fillConfig;
  fillConfig.enableWorkloadPartitioning = false;
  AdmissionController filler(pool, zoo, fillConfig);
  for (int i = 0; i < tpus - 1; ++i) {
    auto r = filler.admit(static_cast<std::uint64_t>(i), zoo::kMobileNetV1,
                          TpuUnit::fromMilli(900));
    benchmark::DoNotOptimize(&r);
  }
  return pool;
}

void admitReleaseLoop(benchmark::State& state, PackingStrategy strategy) {
  ModelRegistry zoo = zoo::standardZoo();
  const auto tpus = static_cast<int>(state.range(0));
  TpuPool pool = makeFilledPool(tpus, zoo);
  AdmissionConfig config;
  config.enableWorkloadPartitioning = false;
  config.strategy = strategy;
  AdmissionController admission(pool, zoo, config);
  for (auto _ : state) {
    auto result =
        admission.admit(10000, zoo::kMobileNetV1, TpuUnit::fromMilli(500));
    benchmark::DoNotOptimize(&result);
    if (result.isOk()) {
      Status s = admission.release(result->allocation);
      benchmark::DoNotOptimize(&s);
    }
  }
  state.SetComplexityN(tpus);
}

void BM_AdmissionFirstFit(benchmark::State& state) {
  admitReleaseLoop(state, PackingStrategy::kFirstFit);
}
BENCHMARK(BM_AdmissionFirstFit)
    ->RangeMultiplier(4)
    ->Range(8, 65536)
    ->Complexity();

void BM_AdmissionBestFit(benchmark::State& state) {
  admitReleaseLoop(state, PackingStrategy::kBestFit);
}
BENCHMARK(BM_AdmissionBestFit)
    ->RangeMultiplier(4)
    ->Range(8, 65536)
    ->Complexity();

// Steady-state churn: the pool is pre-filled with pods of mixed sizes; each
// iteration releases the oldest and admits a replacement, so every step
// changes loads and rescans the pool.
void BM_AdmissionChurn(benchmark::State& state) {
  ModelRegistry zoo = zoo::standardZoo();
  const auto tpus = static_cast<int>(state.range(0));
  TpuPool pool;
  for (int i = 0; i < tpus; ++i) {
    Status s = pool.addTpu("tpu-" + std::to_string(i), 6.9);
    benchmark::DoNotOptimize(&s);
  }
  AdmissionConfig config;
  config.enableWorkloadPartitioning = false;
  AdmissionController admission(pool, zoo, config);
  const std::int64_t sizes[] = {300, 500, 700};
  std::vector<Allocation> live;
  for (int i = 0; i < tpus; ++i) {
    auto r = admission.admit(static_cast<std::uint64_t>(i), zoo::kMobileNetV1,
                             TpuUnit::fromMilli(sizes[i % 3]));
    if (!r.isOk()) break;
    live.push_back(std::move(r->allocation));
  }
  std::size_t head = 0;
  std::uint64_t nextUid = static_cast<std::uint64_t>(tpus);
  for (auto _ : state) {
    Status s = admission.release(live[head]);
    benchmark::DoNotOptimize(&s);
    auto r = admission.admit(nextUid, zoo::kMobileNetV1,
                             TpuUnit::fromMilli(sizes[nextUid % 3]));
    benchmark::DoNotOptimize(&r);
    if (r.isOk()) live[head] = std::move(r->allocation);
    head = (head + 1) % live.size();
    ++nextUid;
  }
  state.SetComplexityN(tpus);
}
BENCHMARK(BM_AdmissionChurn)
    ->Arg(1024)
    ->Arg(8192)
    ->Arg(65536)
    ->Complexity();

void BM_AdmissionWithPartitioning(benchmark::State& state) {
  ModelRegistry zoo = zoo::standardZoo();
  const auto tpus = static_cast<int>(state.range(0));
  TpuPool pool;
  for (int i = 0; i < tpus; ++i) {
    Status s = pool.addTpu("tpu-" + std::to_string(i), 6.9);
    benchmark::DoNotOptimize(&s);
  }
  AdmissionController admission(pool, zoo, {});
  // Every TPU at 900 milli: a partitioned admit gathers 100-milli slices.
  for (int i = 0; i < tpus; ++i) {
    auto r = admission.admit(static_cast<std::uint64_t>(i), zoo::kMobileNetV1,
                             TpuUnit::fromMilli(900));
    benchmark::DoNotOptimize(&r);
  }
  const TpuUnit request =
      TpuUnit::fromMilli(std::min<std::int64_t>(tpus * 100, 900));
  for (auto _ : state) {
    auto result = admission.admit(10000, zoo::kMobileNetV1, request);
    benchmark::DoNotOptimize(&result);
    if (result.isOk()) {
      Status s = admission.release(result->allocation);
      benchmark::DoNotOptimize(&s);
    }
  }
}
BENCHMARK(BM_AdmissionWithPartitioning)->RangeMultiplier(4)->Range(4, 64);

void BM_SmoothWrrPick(benchmark::State& state) {
  SmoothWrr wrr;
  std::vector<LbWeight> targets;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    targets.push_back(LbWeight{internTpu("tpu-" + std::to_string(i)),
                               static_cast<std::uint32_t>(100 + 37 * i)});
  }
  Status s = wrr.setTargets(targets);
  benchmark::DoNotOptimize(&s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wrr.pickIndex());
  }
}
BENCHMARK(BM_SmoothWrrPick)->Arg(2)->Arg(6)->Arg(16);

void BM_CoCompilePlan(benchmark::State& state) {
  ModelRegistry zoo = zoo::standardZoo();
  CoCompiler compiler(zoo);
  TpuState tpu("tpu-00", 6.9);
  tpu.addAllocation(internModel(zoo::kMobileNetV1), TpuUnit::fromMilli(100));
  const ModelInfo& model = zoo.at(zoo::kUNetV2);
  for (auto _ : state) {
    auto plan = compiler.planAdd(tpu, model);
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_CoCompilePlan);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const int events = 10000;
    int fired = 0;
    for (int i = 0; i < events; ++i) {
      sim.schedule(kSimEpoch + microseconds(i % 97), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_PodSpecParse(benchmark::State& state) {
  const std::string yaml =
      "name: camera-03\n"
      "image: coral-pie:1.4\n"
      "fps: 15\n"
      "resources:\n"
      "  cpu: 500m\n"
      "  memory: 256Mi\n"
      "  tpu-units: 0.35\n"
      "  model: ssd-mobilenet-v2\n"
      "labels:\n"
      "  app: coral-pie\n";
  for (auto _ : state) {
    auto spec = podSpecFromYaml(yaml);
    benchmark::DoNotOptimize(&spec);
  }
}
BENCHMARK(BM_PodSpecParse);

}  // namespace
}  // namespace microedge
