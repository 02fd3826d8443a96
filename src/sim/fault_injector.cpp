#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "util/strings.hpp"

namespace microedge {

std::string_view toString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTpuCrash:
      return "tpu-crash";
    case FaultKind::kTpuHang:
      return "tpu-hang";
    case FaultKind::kNodeDeath:
      return "node-death";
    case FaultKind::kTransportLoss:
      return "transport-loss";
    case FaultKind::kLatencySpike:
      return "latency-spike";
  }
  return "unknown";
}

namespace {

SimDuration uniformDuration(Pcg32& rng, SimDuration lo, SimDuration hi) {
  if (hi <= lo) return lo;
  return SimDuration{static_cast<SimDuration::rep>(
      rng.uniform(static_cast<double>(lo.count()),
                  static_cast<double>(hi.count())))};
}

}  // namespace

FaultPlan FaultPlan::random(std::uint64_t seed, const RandomConfig& config) {
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

std::string FaultPlan::toJson() const {
  std::string out = strCat("{\"seed\":", seed, ",\"detectionDelayNs\":",
                           detectionDelay.count(), ",\"events\":[");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (i > 0) out += ",";
    out += strCat("{\"atNs\":", e.at.count(), ",\"kind\":\"", toString(e.kind),
                  "\",\"target\":\"", e.target,
                  "\",\"durationNs\":", e.duration.count(), ",\"magnitude\":",
                  fmtDouble(e.magnitude, 6), "}");
  }
  out += "]}";
  return out;
}

void FaultInjector::arm(const FaultPlan& plan) {
  // Checked in every build: a second plan would arm on top of the first.
  if (armed_) {
    std::fprintf(stderr,
                 "FaultInjector::arm: a fault plan is already armed (one "
                 "fault plan per injector)\n");
    std::abort();
  }
  armed_ = true;
  plan_ = plan;
  const SimTime base = router_.currentSim().now();
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    const SimTime begin = base + e.at;
    const bool twoPhase =
        e.kind == FaultKind::kTpuCrash || e.kind == FaultKind::kNodeDeath;
    const SimTime end = begin + (twoPhase ? plan_.detectionDelay : e.duration);
    if (e.kind == FaultKind::kTransportLoss ||
        e.kind == FaultKind::kLatencySpike) {
      // Lanes are shard-local state: one edge pair per shard, shard 0's
      // pair stands for the window in the log.
      for (unsigned s = 0; s < router_.shardCount(); ++s) {
        post(s, begin, 2 * i, s == 0);
        post(s, end, 2 * i + 1, s == 0);
      }
    } else {
      const unsigned shard = hooks_.shardOf ? hooks_.shardOf(e.target) : 0;
      post(shard, begin, 2 * i, true);
      post(shard, end, 2 * i + 1, true);
    }
  }
}

void FaultInjector::post(unsigned shard, SimTime at, std::size_t edge,
                         bool logged) {
  // Emitter-tagged: a fault's cascade (failure broadcast, recovery pushes,
  // evictions) is exactly the rare cross-shard control traffic the adaptive
  // window bound must see. Without emitter tracking the tag is inert.
  router_.postToShard(
      shard, at, [this, edge, logged] { apply(edge, logged); },
      /*emitter=*/true);
}

void FaultInjector::apply(std::size_t edge, bool logged) {
  const FaultEvent& e = plan_.events[edge / 2];
  const bool begin = edge % 2 == 0;
  if (logged) {
    logs_[ShardRouter::currentShard()].push_back(
        LogEntry{edge, Applied{router_.currentSim().now(), e.kind, e.target,
                               begin}});
  }
  const auto call = [](const auto& hook, const auto&... args) {
    if (hook) hook(args...);
  };
  switch (e.kind) {
    case FaultKind::kTpuCrash:
      call(begin ? hooks_.tpuFailDataPlane : hooks_.tpuFailControlPlane,
           e.target);
      break;
    case FaultKind::kNodeDeath:
      call(begin ? hooks_.nodeFailDataPlane : hooks_.nodeFailControlPlane,
           e.target);
      break;
    case FaultKind::kTpuHang:
      call(hooks_.setTpuHung, e.target, begin);
      break;
    case FaultKind::kTransportLoss:
    case FaultKind::kLatencySpike: {
      if (!begin) {
        call(hooks_.clearTransportFault);
        break;
      }
      // Per-window RNG stream: replaying the plan drops the exact same
      // messages regardless of how many draws earlier windows consumed.
      const std::uint64_t seed =
          plan_.seed ^ (0x9e3779b97f4a7c15ULL * (edge / 2 + 1));
      const bool loss = e.kind == FaultKind::kTransportLoss;
      call(hooks_.setTransportFault, loss ? e.magnitude : 0.0,
           loss ? 1.0 : e.magnitude, seed);
      break;
    }
  }
}

std::vector<FaultInjector::Applied> FaultInjector::log() const {
  std::vector<LogEntry> entries;
  for (const auto& shardLog : logs_) {
    entries.insert(entries.end(), shardLog.begin(), shardLog.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const LogEntry& a, const LogEntry& b) {
              return std::tie(a.applied.at, a.edge) <
                     std::tie(b.applied.at, b.edge);
            });
  std::vector<Applied> out;
  out.reserve(entries.size());
  for (LogEntry& entry : entries) out.push_back(std::move(entry.applied));
  return out;
}

}  // namespace microedge
