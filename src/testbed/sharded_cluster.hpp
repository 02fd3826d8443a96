#pragma once

// City-scale experiment harness over the sharded simulation
// (sim/sharded_sim.hpp).
//
// Where Testbed assembles the full MicroEdge stack on a one-shard
// ShardedSim, this harness assembles a rack-structured cluster across any
// number of shards: the topology places every node on its rack's shard, and
// every rack's nodes, TPU Services, cameras AND control plane (one
// ControlPlane over the rack's TPUs, testbed/control_plane.hpp) live on the
// rack's owner shard, so steady-state traffic is shard-local and only
// genuinely cross-rack interactions — cross-rack streams, failure-detection
// broadcasts, weight pushes — ride the conservative-lookahead mailboxes.
// The harness gives each rack's control plane the same two pod-facing edges
// Testbed does: pushed weights and eviction.
//
// Workload: one camera stream per vRPi, each a PeriodicTask on the vRPi's
// shard with staggered phases (camera i of N starts at (i+1) * period /
// (N+1)) so no two frames share a timestamp and the event order — hence
// every breakdown — is identical at every shard count. Streams target
// their own rack's TPUs by default; with `crossRackStride` = k, every k-th
// camera instead targets the NEXT rack's TPUs (a deliberately cross-shard
// pipeline) and runs without a deadline, keeping the deadline/shed/NACK
// machinery — whose cross-shard timing legitimately differs from solo —
// off the differential path.
//
// Chaos: a FaultPlan is armed through DataPlane::armFaults, which writes
// every data-plane edge; this harness passes only its control-plane edges
// (recoverTpu, recoverNode). Every edge runs on its target's owner shard:
// TPU crash -> removeService at t, then the rack's ControlPlane::failTpu at
// t + detectionDelay (a TPU on a rack the cluster lacks changes nothing);
// tRPi death -> the same for each of its TPUs, after the streams it hosts
// stop and return their units; hang -> setHung window; transport faults ->
// one per-shard lane window whose keyed
// drop decisions depend only on (window seed, stream uid, frame seq) —
// shard-count invariant, so LOSS sits on the differential path. Weight
// pushes and evictions from recovery are posted to the affected client's
// shard one lookahead later — the modelled control-plane push latency — so
// they are deterministic and identical at every shard count.
//
// Determinism witness: each stream folds every completed frame's breakdown
// into a running FNV-1a digest on its own shard; metricsJson() serializes
// per-stream digests and outcome counters in stream order. Two runs of the
// same config agree byte for byte regardless of shard count (the `figures`
// goldens compare the dumps at shards 1, 4 and 8 with one committed file).

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/topology.hpp"
#include "core/overload_supervisor.hpp"
#include "dataplane/dataplane.hpp"
#include "models/registry.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "sim/fault_injector.hpp"
#include "sim/sharded_sim.hpp"
#include "testbed/control_plane.hpp"
#include "testbed/degradation.hpp"
#include "util/status.hpp"

namespace microedge {

// Scenario engine attachment (DESIGN.md §15): when enabled, the spec is
// compiled at construction and its whole timeline — envelope rate updates,
// churn joins/leaves, correlated failures — is pre-armed as emitter-tagged
// events on the owner shards, exactly like a fault plan. Scenario runs keep
// the cross-shard-count byte-identity witness through the tick lattice
// (testbed/rate_control.hpp): they require rack-local, vRPi-hosted streams
// (crossRackStride == 0, streamsPerTRpi == 0) so every stream shares one
// arrival-time constant, and a quantum larger than the stream count so each
// stream owns a unique tick residue.
struct ScenarioRunConfig {
  bool enabled = false;
  ScenarioSpec spec;
  // Nominal deadline for SLO-attainment accounting (the per-phase
  // deadlineMet counter); falls back to frameDeadline when zero. Purely an
  // accounting bound — it never sheds or times out frames, so policy "none"
  // runs can still be judged against the bound the others enforce.
  SimDuration sloDeadline{};
};

// Every stream runs MobileNet V1; every rack runs First-Fit admission, every
// client smooth-WRR routing with the LbService breaker and one failover per
// frame, on default TPU hardware and network (whose base latency is the
// lookahead).
struct ShardedClusterConfig {
  // Most shards a cluster runs: ShardedSim keeps shards² mailboxes and
  // starts one thread per shard in every run(). The repo runs at most 8.
  static constexpr unsigned kMaxShards = 64;
  // shards in [1, kMaxShards], racks at least 1 and an fps that passes
  // fitsFramePeriod (util/time.hpp); anything else fails setupStatus() with
  // InvalidArgument.
  unsigned shards = 1;
  int racks = 2;
  int tRpisPerRack = 2;
  int vRpisPerRack = 4;
  int tpusPerTRpi = 1;
  // Camera streams hosted per RPi. vRPis are the classic camera hosts;
  // tRPis can host streams too (they are full RPis that happen to carry
  // TPUs) — that is what grids the 10k-node city slice out to 100k+
  // streams without growing the node count. Stream order: all vRPi
  // streams (host-major), then all tRPi streams, so the default
  // (1 per vRPi, 0 per tRPi) reproduces the historical stream set, uids
  // and phases exactly.
  int streamsPerVRpi = 1;
  int streamsPerTRpi = 0;
  // Window-bound mode for the sharded run (fire traces are identical in
  // both; kAdaptive widens windows on the ECSB — see sim/sharded_sim.hpp).
  // The harness emitter-tags every cross-shard cascade root, which is what
  // makes kAdaptive sound here.
  ShardedSim::WindowBound windowBound = ShardedSim::WindowBound::kFixed;
  // Rack->shard placement policy. kBlock keeps stride-to-next-rack streams
  // shard-local except at block boundaries, which is what gives the
  // adaptive bound its long emitter-free stretches.
  RackMapping rackMapping = RackMapping::kRoundRobin;
  double fps = 15.0;
  // 0 => profile from the model's zoo service time at `fps`.
  double tpuUnits = 0.0;
  // Deadline for rack-local streams; zero disables (cross-rack streams are
  // always deadline-free — see header).
  SimDuration frameDeadline{};
  // Every `crossRackStride`-th camera targets the next rack's TPUs
  // (cross-shard when racks land on different shards); 0 = all rack-local.
  int crossRackStride = 0;
  // Per-frame admission for every rack-local stream's client (cross-rack
  // streams run deadline-free, which disables the ledger's estimate). Off
  // keeps the submit path — and the default dump — byte-identical.
  FrameAdmissionConfig frameAdmission{};
  // Per-stream fps-ladder degradation. With the scenario lattice (quantum
  // > 0) re-timed streams keep their unique tick residues, so degraded runs
  // stay on the cross-shard-count byte-identity path; without it they are
  // deterministic and seed-replayable per shard count only (see
  // rate_control.hpp).
  DegradationConfig degradation{};
  // Time-varying workload driven by the scenario engine (off by default —
  // the default dump is byte-identical to a build without it).
  ScenarioRunConfig scenario{};
  // SLO-attainment-triggered repacking, one supervisor per rack on the
  // rack's own shard (off by default).
  RepackSupervisorConfig repack{};
};

// The overload-control bundles, in bundle order. They are cumulative (none
// ⊂ admit ⊂ degrade ⊂ full), so a run over all four reads as an ablation:
// the scenario sweep's policy axis and bench_micro_scenario's flash-crowd
// study.
inline constexpr std::array<std::string_view, 4> kControlPolicies = {
    "none", "admit", "degrade", "full"};

// Arms `policy`'s loops on `config`: admit enforces `deadline` as the frame
// deadline with per-frame admission, degrade adds the fps ladder and full
// adds SLO-triggered repacking; none leaves every loop off. Any other name
// is InvalidArgument.
Status applyControlPolicy(std::string_view policy, SimDuration deadline,
                          ShardedClusterConfig* config);

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterConfig config = {});
  ~ShardedCluster();

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  // Setup status: a zero shard or rack count and admission or load failures
  // at construction land here instead of throwing (tests assert ok()). Do
  // not run a cluster whose setup failed.
  const Status& setupStatus() const { return setupStatus_; }

  // Pre-arms a replayable fault plan (call before run; one plan per
  // instance, counting a scenario's failure groups: a second plan aborts in
  // FaultInjector::arm, in every build). Edges run on their owner shards.
  FaultInjector& armFaults(const FaultPlan& plan);

  void run(SimDuration horizon) { sharded_->runFor(horizon); }
  // Runs the armed scenario to its horizon, segment by segment, snapshotting
  // the per-phase metrics series at every phase boundary (all shards are
  // barrier-synced between segments, so sampling reads no mid-window state).
  // Requires scenario.enabled; call at most once.
  Status runScenario();
  // Stops every camera (call between run()s, never inside one); a
  // subsequent run() then drains in-flight frames to terminal outcomes.
  void stopStreams();

  // --- Wiring access --------------------------------------------------------
  ShardedSim& shardedSim() { return *sharded_; }
  ClusterTopology& topology() { return *topology_; }
  DataPlane& dataPlane() { return *dataPlane_; }
  const ModelRegistry& zoo() const { return zoo_; }
  std::size_t streamCount() const { return streams_.size(); }

  // --- Results --------------------------------------------------------------
  struct StreamStats {
    std::string camera;
    bool crossRack = false;
    bool churn = false;      // scenario churn camera (join/leave mid-run)
    bool joined = true;      // admitted and configured (false: join failed)
    bool departed = false;   // drained out by a scenario leave event
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadlineMet = 0;  // completed within the SLO deadline
    std::uint64_t failovers = 0;
    std::uint64_t degradeDowns = 0;  // fps-ladder steps down (0 when off)
    std::uint64_t degradeUps = 0;    // recovery steps back up
    std::array<std::uint64_t, kFrameOutcomeCount> outcomes{};
    std::uint64_t digest = 0;  // FNV-1a over completed breakdowns, in order
  };
  StreamStats streamStats(std::size_t index) const;

  // One scenario phase's windowed metrics (deltas between boundaries except
  // where noted). Deterministic counter arithmetic only — the series is part
  // of the byte-compared scenario dump.
  struct PhaseStats {
    std::string name;
    SimDuration end{};
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadlineMet = 0;
    std::uint64_t admissionRejected = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t shed = 0;
    std::uint64_t degradeDowns = 0;
    std::uint64_t degradeUps = 0;
    std::uint64_t repacks = 0;
    std::uint64_t activeStreams = 0;  // tasks running at the boundary
    std::vector<std::uint64_t> rungOccupancy;  // streams per ladder rung
    double attainment = 1.0;  // deadlineMet / completed over the phase
    double goodputFps = 0.0;  // deadlineMet / phase seconds
  };
  const std::vector<PhaseStats>& phaseStats() const { return phases_; }
  std::uint64_t totalDeadlineMet() const;
  // Repacks triggered across all rack supervisors (0 with repack off).
  std::uint64_t totalRepacks() const;
  std::uint64_t totalSubmitted() const;
  std::uint64_t totalCompleted() const;
  std::uint64_t outcomeTotal(FrameOutcome outcome) const;
  // Degradation step events across all streams (zero with degradation off).
  std::uint64_t totalDegradeDowns() const;
  std::uint64_t totalDegradeUps() const;
  // Order-fixed fold of every stream's digest: the one number two runs (at
  // any shard count) must agree on.
  std::uint64_t digest() const;
  // Deterministic serialization of the full result surface (per-stream and
  // totals) — what the CI determinism smoke byte-compares. With
  // `withSimStats`, appends a "sim" section (windows advanced, adaptive
  // windows, events-per-window histogram, per-shard barrier stall
  // wall-nanos). The section is opt-in because window counts differ by
  // shard count/window mode and stall time is wall-clock — none of it
  // belongs in the byte-compared default dump.
  std::string metricsJson(bool withSimStats = false) const;

 private:
  struct Stream;
  struct RackControl;

  Stream* streamByUid(std::uint64_t uid);
  // A stream's tick: submits one frame and folds its outcome into the
  // stream's witness, deadline count and degrader.
  void submitFrame(Stream& stream);
  // Control-plane pushes toward a pod's client (weights / eviction) land on
  // the client's shard one lookahead later — at EVERY shard count, so solo
  // and sharded runs observe the identical push time.
  void pushLbConfig(std::uint64_t uid, const LbConfig& lb);
  void evictStream(std::uint64_t uid);
  // Control-plane fault edges, on the failed hardware's shard: the rack
  // pool forgets the TPU and the rack's recovery replans its tenants; a
  // dead tRPi first stops the streams it hosts and returns their units.
  void recoverTpu(const std::string& tpuId);
  void recoverNode(const std::string& nodeName);
  // Scenario wiring (all no-ops with scenario off).
  Status validateScenario(std::size_t totalStreams) const;
  // Smallest lattice timestamp strictly after `notBefore` owned by `uid`
  // (t ≡ uid mod quantum — see rate_control.hpp).
  SimTime latticeTick(SimTime notBefore, std::uint64_t uid) const;
  // Mid-run admission of a churn camera through its rack's control plane;
  // runs as an event on the stream's shard at its join time. A failed Load
  // refuses the join.
  void joinStream(Stream* stream);
  void armScenarioTimeline();
  void armRepackSupervisors();
  void samplePhase(std::size_t phase);

  ShardedClusterConfig config_;
  ModelRegistry zoo_;
  std::unique_ptr<ShardedSim> sharded_;
  std::unique_ptr<ClusterTopology> topology_;
  std::unique_ptr<DataPlane> dataPlane_;
  std::vector<std::unique_ptr<RackControl>> racks_;
  std::vector<std::unique_ptr<Stream>> streams_;
  Status setupStatus_ = Status::ok();
  // Scenario state (empty/zero with scenario off).
  CompiledScenario compiled_;
  double streamUnits_ = 0.0;      // admitted units per stream (churn joins)
  SimDuration sloDeadline_{};     // deadlineMet accounting bound
  SimTime scenarioBase_{};        // sim time the timeline was armed at
  std::vector<PhaseStats> phases_;
  PhaseStats phaseCursor_;        // cumulative snapshot behind the deltas
  bool scenarioRan_ = false;
};

}  // namespace microedge
