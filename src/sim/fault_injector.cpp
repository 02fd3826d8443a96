#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

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
  const SimTime base = sharded_.currentSim().now();
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
      for (unsigned s = 0; s < sharded_.shardCount(); ++s) {
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
  sharded_.postToShard(
      shard, at, [this, edge, logged] { apply(edge, logged); },
      /*emitter=*/true);
}

void FaultInjector::apply(std::size_t edge, bool logged) {
  const FaultEvent& e = plan_.events[edge / 2];
  const bool begin = edge % 2 == 0;
  if (logged) {
    logs_[ShardedSim::currentShard()].push_back(
        LogEntry{edge, Applied{sharded_.currentSim().now(), e.kind, e.target,
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
