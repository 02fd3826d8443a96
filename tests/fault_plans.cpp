#include "fault_plans.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace microedge {

namespace {

SimDuration uniformDuration(Pcg32& rng, SimDuration lo, SimDuration hi) {
  if (hi <= lo) return lo;
  return SimDuration{static_cast<SimDuration::rep>(
      rng.uniform(static_cast<double>(lo.count()),
                  static_cast<double>(hi.count())))};
}

}  // namespace

FaultPlan randomFaultPlan(std::uint64_t seed,
                          const RandomFaultPlanConfig& config) {
  FaultPlan plan;
  plan.seed = seed;
  Pcg32 rng(seed, /*stream=*/0x5eed5eedULL);

  // Crash and death targets are drawn without replacement so a plan never
  // crashes the same TPU twice (crashing an already-dead one is a no-op
  // anyway, but distinct targets exercise more of the recovery path).
  std::vector<std::string> tpus = config.tpus;
  rng.shuffle(tpus);
  std::size_t crashes = std::min<std::size_t>(
      config.maxTpuCrashes == 0 ? 0 : rng.nextBounded(static_cast<std::uint32_t>(
                                          config.maxTpuCrashes + 1)),
      tpus.size());
  for (std::size_t i = 0; i < crashes; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kTpuCrash;
    e.target = tpus[i];
    e.at = uniformDuration(rng, config.earliest, config.horizon);
    plan.events.push_back(std::move(e));
  }

  std::vector<std::string> nodes = config.nodes;
  rng.shuffle(nodes);
  std::size_t deaths = std::min<std::size_t>(
      config.maxNodeDeaths == 0 ? 0 : rng.nextBounded(static_cast<std::uint32_t>(
                                          config.maxNodeDeaths + 1)),
      nodes.size());
  for (std::size_t i = 0; i < deaths; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kNodeDeath;
    e.target = nodes[i];
    e.at = uniformDuration(rng, config.earliest, config.horizon);
    plan.events.push_back(std::move(e));
  }

  // Hangs may hit any TPU (including one that later crashes — the injector
  // tolerates the service being gone when the hang edge fires).
  std::size_t hangs =
      config.maxTpuHangs == 0 || config.tpus.empty()
          ? 0
          : rng.nextBounded(static_cast<std::uint32_t>(config.maxTpuHangs + 1));
  for (std::size_t i = 0; i < hangs; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kTpuHang;
    e.target = config.tpus[rng.nextBounded(
        static_cast<std::uint32_t>(config.tpus.size()))];
    e.at = uniformDuration(rng, config.earliest, config.horizon);
    e.duration = uniformDuration(rng, config.minWindow, config.maxWindow);
    plan.events.push_back(std::move(e));
  }

  // Transport fault windows are laid out sequentially (cursor walks from
  // `earliest`) so loss and spike windows never overlap — the transport has
  // a single fault register and last-writer-wins would make overlapping
  // windows clear each other early.
  std::size_t transports =
      config.maxTransportFaults == 0
          ? 0
          : rng.nextBounded(
                static_cast<std::uint32_t>(config.maxTransportFaults + 1));
  SimDuration cursor = config.earliest;
  for (std::size_t i = 0; i < transports && cursor < config.horizon; ++i) {
    FaultEvent e;
    bool loss = rng.bernoulli(0.5);
    e.kind = loss ? FaultKind::kTransportLoss : FaultKind::kLatencySpike;
    e.magnitude = loss ? rng.uniform(0.05, config.maxLossProbability)
                       : rng.uniform(1.5, config.maxLatencyMultiplier);
    e.at = cursor + uniformDuration(rng, SimDuration::zero(),
                                    (config.horizon - cursor) / 2);
    e.duration = uniformDuration(rng, config.minWindow, config.maxWindow);
    cursor = e.at + e.duration + config.minWindow;
    plan.events.push_back(std::move(e));
  }

  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.target < b.target;
            });
  return plan;
}

std::string faultPlanJson(const FaultPlan& plan) {
  std::string out = strCat("{\"seed\":", plan.seed, ",\"detectionDelayNs\":",
                           plan.detectionDelay.count(), ",\"events\":[");
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& e = plan.events[i];
    if (i > 0) out += ",";
    out += strCat("{\"atNs\":", e.at.count(), ",\"kind\":\"", toString(e.kind),
                  "\",\"target\":\"", e.target,
                  "\",\"durationNs\":", e.duration.count(), ",\"magnitude\":",
                  fmtDouble(e.magnitude, 6), "}");
  }
  out += "]}";
  return out;
}

}  // namespace microedge
