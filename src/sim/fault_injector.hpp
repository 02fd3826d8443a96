#pragma once

// Seeded, simulator-driven fault injection.
//
// A FaultPlan is a replayable schedule of fault events — TPU crash, TPU
// hang, tRPi node death, transport loss and latency-spike windows — built
// by hand, compiled from a scenario's failure groups, or drawn from a seed
// by the chaos soaks' helper (tests/fault_plans.hpp). The
// FaultInjector arms a plan by scheduling each fault as an ordinary
// simulator event, so faults interleave deterministically with frames: the
// same plan armed twice produces bit-identical event traces (the applied-
// fault log is exposed for exactly that assertion).
//
// The injector is the only code that turns a plan into simulator events,
// for both harnesses. It stays decoupled from the cluster stack through a
// small Hooks struct (plain std::functions), keeping me_sim dependency-free.
// DataPlane::armFaults is the one place that builds an injector: it fills
// the data-plane side and the owner-shard map, takes each harness's
// control-plane edges as arguments, and arms the plan. Testbed and
// bench_micro_chaos run it on a one-shard ShardedSim.
//
// Sharding: every edge is posted emitter-tagged onto its target's owner
// shard (Hooks::shardOf), so a hook only ever touches state of the shard it
// runs on. A transport window arms one edge pair per shard, each acting on
// that shard's transport lane with the window's own seed. The applied-fault
// log is kept per shard (hooks run on shard workers) and merged on read.
//
// Detection-window modelling: a crash/node-death fires twice. At t the
// *data-plane* hook runs (the service stops answering — frames in flight
// start failing over against masked health state); at t + detectionDelay
// the *control-plane* hook runs (the orchestrator notices: pool removal,
// failure recovery replan, weight push). The window between the two is the
// paper's §8 loss window, and the chaos soak asserts that frame loss is
// confined to it.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sharded_sim.hpp"
#include "util/time.hpp"

namespace microedge {

enum class FaultKind : std::uint8_t {
  kTpuCrash,       // service removed at t, recovery replans at t + detection
  kTpuHang,        // service answers kUnavailable for `duration`
  kNodeDeath,      // tRPi dies: its pods + TPUs, detection-delayed recovery
  kTransportLoss,  // every message dropped w.p. `magnitude` for `duration`
  kLatencySpike,   // transfer latency x `magnitude` for `duration`
};
std::string_view toString(FaultKind kind);

struct FaultEvent {
  SimDuration at{};    // offset from arm() time
  FaultKind kind{};
  std::string target;  // TPU id / node name; empty for transport faults
  SimDuration duration{};  // hang / transport windows; unused for crash/death
  double magnitude = 0.0;  // loss probability or latency multiplier
};

struct FaultPlan {
  std::uint64_t seed = 1;  // drives the transport fault RNG streams
  // Gap between a crash/death hitting the data plane and the control plane
  // noticing (health checks, node heartbeats).
  SimDuration detectionDelay = milliseconds(750);
  std::vector<FaultEvent> events;
};

class FaultInjector {
 public:
  struct Hooks {
    // Owner shard of a crash/hang/death target (TPU id or node name): the
    // shard whose event loop runs the target's edges. Unset: shard 0.
    std::function<unsigned(const std::string& target)> shardOf;
    // Crash/death, data-plane edge (at t): stop answering.
    std::function<void(const std::string& tpuId)> tpuFailDataPlane;
    std::function<void(const std::string& node)> nodeFailDataPlane;
    // Crash/death, control-plane edge (at t + detectionDelay): recover.
    std::function<void(const std::string& tpuId)> tpuFailControlPlane;
    std::function<void(const std::string& node)> nodeFailControlPlane;
    std::function<void(const std::string& tpuId, bool hung)> setTpuHung;
    // Transport window edges run once per shard and act on that shard's
    // lane only.
    std::function<void(double lossProbability, double latencyMultiplier,
                       std::uint64_t seed)> setTransportFault;
    std::function<void()> clearTransportFault;
  };

  // One line of the applied-fault log. `begin` distinguishes the onset edge
  // from the clear/recovery edge of two-edged faults.
  struct Applied {
    SimTime at{};
    FaultKind kind{};
    std::string target;
    bool begin = true;

    friend bool operator==(const Applied& a, const Applied& b) {
      return a.at == b.at && a.kind == b.kind && a.target == b.target &&
             a.begin == b.begin;
    }
  };

  FaultInjector(ShardedSim& sharded, Hooks hooks)
      : sharded_(sharded), hooks_(std::move(hooks)),
        logs_(sharded.shardCount()) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Posts every edge of `plan` relative to the current sim time. One plan
  // per injector: a second call aborts, in every build.
  void arm(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }
  // Edges applied so far, each plan edge once (a transport window is not
  // repeated per lane), ordered by (time, arm order) — at one shard that is
  // the firing order. The replay-determinism witness.
  std::vector<Applied> log() const;
  // Plan edges armed: two per event, so log().size() after a full run.
  std::size_t scheduledCount() const { return 2 * plan_.events.size(); }

 private:
  struct LogEntry {
    std::size_t edge = 0;  // 2 * event index, + 1 for the closing edge
    Applied applied;
  };

  // Posts edge `edge` onto `shard` at `at`; `logged` edges enter the log.
  void post(unsigned shard, SimTime at, std::size_t edge, bool logged);
  // Runs one edge on the calling shard.
  void apply(std::size_t edge, bool logged);

  ShardedSim& sharded_;
  Hooks hooks_;
  FaultPlan plan_;  // immutable once armed; pending edges index into it
  std::vector<std::vector<LogEntry>> logs_;  // [shard], own worker writes
  bool armed_ = false;
};

}  // namespace microedge
