#include "testbed/sharded_cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "models/zoo.hpp"
#include "sim/topology.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace microedge {

namespace {

// Gap between a departing churn camera's drain (task + client stop) and the
// release of its admitted units back to the rack pool.
constexpr SimDuration kDrainGrace = milliseconds(250);

// Contiguous rack blocks the camera list is dealt over (block = rack *
// kPhaseBlocks / racks). At least the largest shard count the benches and
// tests run, so every short stretch of the phase order holds cameras of
// every block, and under RackMapping::kBlock of every shard.
constexpr std::size_t kPhaseBlocks = 8;

std::uint64_t fnvFoldString(std::uint64_t h, const std::string& s) {
  for (char c : s) h = fnvFold(h, static_cast<unsigned char>(c));
  return fnvFold(h, s.size());
}

}  // namespace

Status applyControlPolicy(std::string_view policy, SimDuration deadline,
                          ShardedClusterConfig* config) {
  // The bundles are cumulative, so a bundle's position in kControlPolicies
  // says which loops it arms. An unknown name arms nothing.
  const auto it =
      std::find(kControlPolicies.begin(), kControlPolicies.end(), policy);
  if (it == kControlPolicies.end()) {
    return invalidArgument(strCat("unknown control policy \"", policy,
                                  "\" (none|admit|degrade)"));
  }
  const auto level = it - kControlPolicies.begin();
  if (level >= 1) {
    config->frameDeadline = deadline;
    config->frameAdmission.enabled = true;
  }
  if (level >= 2) config->degradation.enabled = true;
  return Status::ok();
}

// One camera stream: a PeriodicTask on the vRPi's shard submitting frames
// through the pod's TpuClient, whose node handle names the camera. The
// client, task and rate control live in the stream itself, so a stream is
// one heap block (plus its LB targets'), and members are destroyed in
// reverse order: the degrader and rate control (which reference the task
// and client) first, then the task (which captures the stream), then the
// client.
struct ShardedCluster::Stream {
  Stream(ShardedCluster& owner, DataPlane& dataPlane,
         const TpuClient::Config& clientConfig, Simulator& sim,
         SimDuration period, bool emitter, SimDuration nominalPeriod,
         SimDuration quantum)
      : client(dataPlane, clientConfig),
        task(sim, period, [&owner, this] { owner.submitFrame(*this); },
             emitter),
        rate(task, nominalPeriod, quantum) {}

  int targetRack = 0;
  unsigned shard = 0;
  bool crossRack = false;
  bool evicted = false;  // the pod is gone: evicted, or its host died
  // Scenario churn state: a churn camera with joinAt > 0 is built (client,
  // task, rate control) at setup but admitted — units, loads, LB config —
  // by its join event mid-run; `joined` stays false if that admission
  // fails. A leave event drains the stream: task + client stop, in-flight
  // frames reach their terminal outcomes, units released after kDrainGrace.
  bool churn = false;
  bool joined = true;
  bool departed = false;
  std::uint64_t uid = 0;
  SimDuration joinAt{};
  SimDuration leaveAt{};
  std::uint64_t deadlineMet = 0;  // completed within sloDeadline_
  std::uint64_t digest = kFnvOffset;
  TpuClient client;
  PeriodicTask task;
  // Period arbiter (scenario envelope x degrader rung).
  StreamRateControl rate;
  // Null unless degradation is enabled.
  std::unique_ptr<StreamDegrader> degrader;

  void fold(const FrameBreakdown& b) {
    std::uint64_t h = digest;
    h = fnvFold(h, b.frameId);
    h = fnvFold(h, static_cast<std::uint64_t>(b.outcome));
    h = fnvFold(h, b.failovers);
    // The serving TPU by *name*, not dense handle, so the witness is
    // independent of intern order.
    h = fnvFoldString(h, b.servedByName());
    h = fnvFold(h, static_cast<std::uint64_t>(
                       b.submitted.time_since_epoch().count()));
    h = fnvFold(h, static_cast<std::uint64_t>(
                       b.completed.time_since_epoch().count()));
    h = fnvFold(h, static_cast<std::uint64_t>(b.preprocess.count()));
    h = fnvFold(h, static_cast<std::uint64_t>(b.requestTransmit.count()));
    h = fnvFold(h, static_cast<std::uint64_t>(b.queueDelay.count()));
    h = fnvFold(h, static_cast<std::uint64_t>(b.inference.count()));
    h = fnvFold(h, static_cast<std::uint64_t>(b.responseTransmit.count()));
    h = fnvFold(h, static_cast<std::uint64_t>(b.postprocess.count()));
    digest = h;
  }
};

// One rack's control plane, living on the rack's owner shard over only this
// rack's TPUs. Control actions affecting clients on other shards are posted
// one lookahead later (the modelled control-push latency).
struct ShardedCluster::RackControl {
  RackControl(unsigned s, DataPlane& dataPlane, const ModelRegistry& zoo,
              const ControlPlane::Hooks& hooks)
      : shard(s), control(dataPlane, zoo, {}, hooks) {}

  unsigned shard;
  ControlPlane control;
};

ShardedCluster::ShardedCluster(ShardedClusterConfig config)
    : config_(std::move(config)), zoo_(zoo::standardZoo()) {
  if (config_.shards < 1 ||
      config_.shards > ShardedClusterConfig::kMaxShards || config_.racks < 1 ||
      !fitsFramePeriod(config_.fps)) {
    setupStatus_ = invalidArgument(strCat(
        "sharded cluster: shards (", config_.shards, ") must be 1 to ",
        ShardedClusterConfig::kMaxShards, ", racks (", config_.racks,
        ") at least 1, and fps (", config_.fps,
        ") must give a frame period between 1 ns and about 292 years"));
    return;
  }
  const int racks = config_.racks;

  sharded_ = std::make_unique<ShardedSim>(
      config_.shards, NetworkConfig{}.baseLatency, config_.windowBound);
  ShardMap& map = sharded_->shardMap();
  // Placement policy must be fixed before the topology assigns its nodes.
  map.setRackMapping(config_.rackMapping, racks);

  TopologySpec spec;
  spec.racks = racks;
  spec.tRpiCount = racks * config_.tRpisPerRack;
  spec.vRpiCount = racks * config_.vRpisPerRack;
  spec.tpusPerTRpi = config_.tpusPerTRpi;
  topology_ = std::make_unique<ClusterTopology>(*sharded_, zoo_, spec);

  dataPlane_ = std::make_unique<DataPlane>(*sharded_, *topology_, zoo_);

  // --- Per-rack control planes ---------------------------------------------
  const ControlPlane::Hooks hooks{
      [this](std::uint64_t uid, const LbConfig& lb) { pushLbConfig(uid, lb); },
      [this](std::uint64_t uid, const Status&) { evictStream(uid); }};
  racks_.reserve(static_cast<std::size_t>(racks));
  for (int r = 0; r < racks; ++r) {
    racks_.push_back(std::make_unique<RackControl>(map.shardOfRack(r),
                                                   *dataPlane_, zoo_, hooks));
  }
  for (const RpiNode* host : topology_->tRpis()) {
    for (const TpuDevice* tpu : host->tpus()) {
      racks_[static_cast<std::size_t>(host->rack())]->control.addTpu(*tpu);
    }
  }

  // --- Camera streams -------------------------------------------------------
  const ModelInfo& info = zoo_.at(zoo::kMobileNetV1);
  const ModelId model = info.id;
  const double units = config_.tpuUnits > 0.0 ? config_.tpuUnits
                                              : info.tpuUnitsAt(config_.fps);
  streamUnits_ = units;
  const SimDuration nominalPeriod = framePeriod(config_.fps);
  const bool scenarioOn = config_.scenario.enabled;
  SimDuration quantum{};
  if (scenarioOn) {
    setupStatus_ = config_.scenario.spec.validate();
    if (!setupStatus_.isOk()) return;
    compiled_ = compileScenario(config_.scenario.spec, racks);
    quantum = SimDuration{config_.scenario.spec.quantumNs};
    sloDeadline_ = config_.scenario.sloDeadline > SimDuration::zero()
                       ? config_.scenario.sloDeadline
                       : config_.frameDeadline;
  }
  // Scenario runs start on the tick lattice (rate_control.hpp): the period
  // is quantized up front and every stream's first fire lands on its own
  // uid residue, so retimed tick sets stay disjoint at every shard count.
  const SimDuration period =
      scenarioOn ? StreamRateControl::periodFor(nominalPeriod, 1.0, quantum)
                 : nominalPeriod;
  // Camera list. The host-major list holds every vRPi `streamsPerVRpi` times,
  // then every tRPi `streamsPerTRpi` times; node i of a kind sits on rack
  // i % racks, so in that order the staggered phases sweep the racks in
  // sequence and each short stretch of the period ticks on one rack block
  // (one shard). The list is instead dealt round-robin over kPhaseBlocks
  // rack blocks, one host with all its streams at a time, each block's hosts
  // in host-major order. Stream index, uid, memory and phase order all follow
  // the dealt list; the cross-rack flag keeps the host-major position, so
  // every host keeps the same cross-rack streams. With at most kPhaseBlocks
  // racks every rack is its own block and the deal is the identity.
  struct Camera {
    RpiNode* host = nullptr;
    bool cross = false;
  };
  std::vector<Camera> cameras;
  {
    struct Host {
      RpiNode* node;
      int first;  // host-major position of its first stream
      int streams;
    };
    std::array<std::vector<Host>, kPhaseBlocks> blocks;
    int position = 0;
    const auto addHosts = [&](const std::vector<RpiNode*>& nodes, int perHost) {
      if (perHost <= 0) return;
      for (RpiNode* node : nodes) {
        const std::size_t block = static_cast<std::size_t>(node->rack()) *
                                  kPhaseBlocks /
                                  static_cast<std::size_t>(racks);
        blocks[block].push_back({node, position, perHost});
        position += perHost;
      }
    };
    addHosts(topology_->vRpis(), config_.streamsPerVRpi);
    addHosts(topology_->tRpis(), config_.streamsPerTRpi);
    const int stride = racks > 1 ? config_.crossRackStride : 0;
    const std::size_t count = static_cast<std::size_t>(position);
    cameras.reserve(count);
    for (std::size_t round = 0; cameras.size() < count; ++round) {
      for (const std::vector<Host>& block : blocks) {
        if (round >= block.size()) continue;
        const Host& host = block[round];
        for (int k = 0; k < host.streams; ++k) {
          cameras.push_back(
              {host.node, stride > 0 && (host.first + k) % stride == 0});
        }
      }
    }
  }
  // Churn cameras (scenario only) are appended after the base set so base
  // uids/phases are unchanged; each is placed round-robin over its tenant
  // rack's vRPis.
  struct ChurnHost {
    RpiNode* host = nullptr;
    SimDuration joinAt{};
    SimDuration leaveAt{};
  };
  std::vector<ChurnHost> churnCameras;
  if (scenarioOn && !compiled_.churn.empty()) {
    std::vector<std::vector<RpiNode*>> vRpisByRack(
        static_cast<std::size_t>(racks));
    for (RpiNode* host : topology_->vRpis()) {
      vRpisByRack[static_cast<std::size_t>(host->rack())].push_back(host);
    }
    std::vector<std::size_t> cursor(static_cast<std::size_t>(racks), 0);
    for (const ScenarioChurnCamera& cam : compiled_.churn) {
      const std::size_t r = static_cast<std::size_t>(cam.tenant % racks);
      if (vRpisByRack[r].empty()) {
        setupStatus_ =
            invalidArgument("scenario: churn tenant rack has no vRPis");
        return;
      }
      RpiNode* host = vRpisByRack[r][cursor[r]++ % vRpisByRack[r].size()];
      churnCameras.push_back({host, cam.joinAt, cam.leaveAt});
    }
  }
  const int base = static_cast<int>(cameras.size());
  const int total = base + static_cast<int>(churnCameras.size());
  setupStatus_ = validateScenario(static_cast<std::size_t>(total));
  if (!setupStatus_.isOk()) return;
  streams_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    const bool isChurn = i >= base;
    const ChurnHost* churn =
        isChurn ? &churnCameras[static_cast<std::size_t>(i - base)] : nullptr;
    RpiNode* camera =
        isChurn ? churn->host : cameras[static_cast<std::size_t>(i)].host;
    const int rack = camera->rack();
    const bool cross = !isChurn && cameras[static_cast<std::size_t>(i)].cross;
    const int targetRack = cross ? (rack + 1) % racks : rack;
    const std::uint64_t uid = static_cast<std::uint64_t>(i) + 1;

    // The camera's name is interned once: the stream and its client share
    // the handle.
    const NodeId cameraNode = internNode(camera->name());
    const unsigned shard = sharded_->shardOfNode(cameraNode);
    RackControl& rc = *racks_[static_cast<std::size_t>(targetRack)];
    // Churn cameras with a positive join time defer admission (units, weight
    // loads, LB config) to their join event; everyone else admits at setup.
    const bool admitNow = !isChurn || churn->joinAt == SimDuration::zero();
    LbConfig lb;
    if (admitNow) {
      auto admitted =
          rc.control.admit(uid, zoo::kMobileNetV1, TpuUnit::fromDouble(units));
      if (!admitted.isOk()) {
        setupStatus_ = admitted.status();
        return;
      }
      lb = std::move(admitted).value();
    }

    TpuClient::Config clientConfig;
    clientConfig.clientNode = cameraNode;
    clientConfig.model = model;
    // Cross-rack streams run deadline-free: the deadline/shed/NACK paths are
    // the one place sharded timing legitimately differs from solo (see
    // header), so the differential witness keeps them rack-local only.
    clientConfig.frameDeadline =
        cross ? SimDuration::zero() : config_.frameDeadline;
    // Per-frame admission: with a zero deadline (cross-rack streams) the
    // estimate is zero and the ledger is never consulted.
    clientConfig.admission = config_.frameAdmission;
    // Keyed transport loss: the stream uid tokens every message, so which
    // frames a loss window drops is a pure function of (plan seed, uid,
    // frame seq), identical at every shard count.
    clientConfig.streamToken = uid;
    // Emitter-tag only streams whose target rack lives on ANOTHER shard:
    // their frame cascades are the steady-state source of cross-shard sends,
    // so the adaptive window bound must see them (sim/sharded_sim.hpp).
    // Same-shard cross-rack streams stay untagged — tagging them would pin
    // the ECSB to every frame tick and erase the adaptive win.
    const bool crossShard = cross && map.shardOfRack(targetRack) != shard;
    Simulator& sim = sharded_->shardSim(shard);
    auto stream =
        std::make_unique<Stream>(*this, *dataPlane_, clientConfig, sim, period,
                                 crossShard, nominalPeriod, quantum);
    stream->targetRack = targetRack;
    stream->crossRack = cross;
    stream->shard = shard;
    stream->uid = uid;
    stream->joined = admitNow;
    if (isChurn) {
      stream->churn = true;
      stream->joinAt = churn->joinAt;
      stream->leaveAt = churn->leaveAt;
    }
    if (admitNow) {
      Status configured = stream->client.configureLb(lb);
      if (!configured.isOk()) {
        setupStatus_ = configured;
        return;
      }
    }
    if (config_.degradation.enabled) {
      stream->degrader = std::make_unique<StreamDegrader>(
          stream->client, stream->rate, config_.degradation.stepDownPressure);
    }
    // Stagger camera phases so no two frames in the cluster ever share a
    // timestamp: the global event order — and with it every breakdown — is
    // then independent of how shards interleave. Scenario runs snap the
    // staggered start onto the stream's lattice residue instead.
    const SimDuration phase = (period * (i + 1)) / (total + 1);
    if (admitNow) {
      stream->task.startAt(scenarioOn ? latticeTick(sim.now() + phase, uid)
                                      : sim.now() + phase);
    }
    streams_.push_back(std::move(stream));
  }
  if (scenarioOn) armScenarioTimeline();
}

ShardedCluster::~ShardedCluster() = default;

void ShardedCluster::stopStreams() {
  // Checked in every build: inside a run it would stop streams that other
  // shards' threads are driving.
  if (sharded_->running()) {
    std::fprintf(stderr, "ShardedCluster::stopStreams: called inside a run "
                 "on shard %u; call it between run()s\n",
                 ShardedSim::currentShard());
    std::abort();
  }
  for (const auto& stream : streams_) {
    stream->task.stop();
    stream->client.stop();
  }
}

void ShardedCluster::submitFrame(Stream& stream) {
  (void)stream.client.invoke([this, &stream](const FrameBreakdown& b) {
    stream.fold(b);
    if (sloDeadline_ > SimDuration::zero() &&
        b.outcome == FrameOutcome::kCompleted && b.endToEnd() <= sloDeadline_) {
      ++stream.deadlineMet;
    }
    if (stream.degrader) stream.degrader->onFrame();
  });
}

ShardedCluster::Stream* ShardedCluster::streamByUid(std::uint64_t uid) {
  const std::size_t index = static_cast<std::size_t>(uid) - 1;
  return uid >= 1 && index < streams_.size() ? streams_[index].get() : nullptr;
}

void ShardedCluster::pushLbConfig(std::uint64_t uid, const LbConfig& lb) {
  Stream* stream = streamByUid(uid);
  if (stream == nullptr) return;
  // The push crosses from the rack's control shard to the client's shard
  // one lookahead later — ALWAYS delayed, even when both live on the same
  // shard, so every shard count observes the identical push time.
  const SimTime at = sharded_->currentSim().now() + sharded_->lookahead();
  sharded_->postToShard(stream->shard, at, [client = &stream->client, lb] {
    (void)client->configureLb(lb);
  });
}

void ShardedCluster::evictStream(std::uint64_t uid) {
  Stream* stream = streamByUid(uid);
  if (stream == nullptr || stream->evicted) return;
  stream->evicted = true;
  const SimTime at = sharded_->currentSim().now() + sharded_->lookahead();
  sharded_->postToShard(stream->shard, at, [stream] {
    stream->task.stop();
    stream->client.stop();
  });
}

FaultInjector& ShardedCluster::armFaults(const FaultPlan& plan) {
  // Each target's owner shard is also its rack's control shard; detection
  // runs the rack-local control plane there.
  return dataPlane_->armFaults(
      plan, [this](const std::string& tpuId) { recoverTpu(tpuId); },
      [this](const std::string& nodeName) { recoverNode(nodeName); });
}

void ShardedCluster::recoverTpu(const std::string& tpuId) {
  // A plan may name a TPU this cluster lacks: nothing to recover.
  if (const RpiNode* host = topology_->hostOf(tpuId)) {
    (void)racks_[static_cast<std::size_t>(host->rack())]->control.failTpu(
        tpuId);
  }
}

void ShardedCluster::recoverNode(const std::string& nodeName) {
  // Streams hosted on the dead RPi die with it (they live on its shard)
  // and count as evicted, so a churn camera whose join is still pending
  // never joins on the dead host. Their units return to their target rack
  // before the node's TPUs are recovered, so the replan sees the freed
  // capacity: at once for the node's own rack, one lookahead later for
  // another rack (the control push latency, at every shard count). A plan
  // may name a node this cluster lacks: nothing to recover.
  const RpiNode* dead = topology_->findNode(nodeName);
  if (dead == nullptr) return;
  const SimTime pushAt = sharded_->currentSim().now() + sharded_->lookahead();
  const NodeId node = lookupNode(nodeName);
  for (const auto& sp : streams_) {
    Stream* s = sp.get();
    if (s->client.clientNode() != node) continue;
    s->evicted = true;
    s->task.stop();
    s->client.stop();
    RackControl* target = racks_[static_cast<std::size_t>(s->targetRack)].get();
    if (s->targetRack == dead->rack()) {
      (void)target->control.reclamation().releaseNow(s->uid);
    } else {
      sharded_->postToShard(target->shard, pushAt, [target, uid = s->uid] {
        (void)target->control.reclamation().releaseNow(uid);
      });
    }
  }
  for (const TpuDevice* tpu : dead->tpus()) recoverTpu(tpu->id());
}

Status ShardedCluster::validateScenario(std::size_t totalStreams) const {
  if (!config_.scenario.enabled) return Status::ok();
  // The lattice argument (rate_control.hpp) needs every stream to share one
  // arrival-time constant: rack-local targets only (no cross-rack hops) and
  // vRPi camera hosts only (tRPi-hosted streams ride loopback lanes with a
  // different constant). Residues must also be unique, so the quantum has to
  // exceed the stream count.
  if (config_.crossRackStride != 0) {
    return invalidArgument(
        "scenario: requires rack-local streams (crossRackStride == 0)");
  }
  if (config_.streamsPerTRpi != 0) {
    return invalidArgument(
        "scenario: requires vRPi-hosted streams (streamsPerTRpi == 0)");
  }
  const std::int64_t quantum = config_.scenario.spec.quantumNs;
  if (quantum > 0 && static_cast<std::int64_t>(totalStreams) >= quantum) {
    return invalidArgument(
        "scenario: quantum_ns must exceed the stream count (uids are "
        "lattice residues)");
  }
  return Status::ok();
}

SimTime ShardedCluster::latticeTick(SimTime notBefore,
                                    std::uint64_t uid) const {
  const std::int64_t q = config_.scenario.spec.quantumNs;
  if (q <= 0) return notBefore;
  const std::int64_t at = notBefore.time_since_epoch().count();
  const std::int64_t next = (at / q + 1) * q;
  return SimTime{SimDuration{next + static_cast<std::int64_t>(uid)}};
}

void ShardedCluster::armScenarioTimeline() {
  scenarioBase_ = sharded_->now();
  // Envelope rate updates: one emitter-tagged event per (update, affected
  // stream) on the stream's owner shard. setEnvelope() retunes the task at
  // its next re-arm, so the retimed ticks stay on the stream's lattice
  // residue. All timeline events are scheduled here at setup, in stream
  // order, so their same-timestamp sequence is shard-count invariant.
  for (const ScenarioRateUpdate& update : compiled_.rateUpdates) {
    for (const auto& s : streams_) {
      if (update.tenant >= 0 && s->targetRack != update.tenant) continue;
      sharded_->postToShard(
          s->shard, scenarioBase_ + update.at,
          [rate = &s->rate, m = update.multiplier] {
            rate->setEnvelope(m);
          },
          /*emitter=*/true);
    }
  }
  // Churn joins and leaves. A leave stops the task and the client (in-flight
  // frames drain to their terminal outcomes and credit the ledger), then
  // releases the admitted units one drain-grace later on the rack's control
  // shard — which IS the stream's shard, scenario streams being rack-local.
  for (const auto& sp : streams_) {
    Stream* s = sp.get();
    if (s->joinAt > SimDuration::zero()) {
      sharded_->postToShard(
          s->shard, scenarioBase_ + s->joinAt, [this, s] { joinStream(s); },
          /*emitter=*/true);
    }
    if (s->leaveAt > SimDuration::zero()) {
      sharded_->postToShard(
          s->shard, scenarioBase_ + s->leaveAt,
          [s] {
            s->departed = true;
            s->task.stop();
            s->client.stop();
          },
          /*emitter=*/true);
      sharded_->postToShard(
          s->shard, scenarioBase_ + s->leaveAt + kDrainGrace,
          [this, s] {
            if (s->joined) {
              (void)racks_[static_cast<std::size_t>(s->targetRack)]
                  ->control.reclamation()
                  .releaseNow(s->uid);
            }
          },
          /*emitter=*/true);
    }
  }
  // Correlated failures ride the standard fault-plan path: compile the
  // rack-scoped groups against this topology's tRPi names and arm them like
  // any hand-written plan.
  std::vector<std::vector<std::string>> tRpisByRack(
      static_cast<std::size_t>(config_.racks));
  for (RpiNode* node : topology_->tRpis()) {
    tRpisByRack[static_cast<std::size_t>(node->rack())].push_back(
        node->name());
  }
  FaultPlan plan = compileScenarioFaults(config_.scenario.spec, tRpisByRack);
  if (!plan.events.empty()) armFaults(plan);
}

void ShardedCluster::joinStream(Stream* stream) {
  // Runs as an event on the stream's shard — the rack's control shard, so
  // pool/admission state is touched only by its owner. The join is an
  // admission: a full rack (or one gutted by a failure group), or a Load
  // that fails on a hung service, deterministically refuses it and the
  // camera simply never starts; so does the death of its host before the
  // join.
  if (stream->evicted) return;
  auto lb = racks_[static_cast<std::size_t>(stream->targetRack)]->control.admit(
      stream->uid, zoo::kMobileNetV1, TpuUnit::fromDouble(streamUnits_));
  if (!lb.isOk()) return;
  (void)stream->client.configureLb(*lb);
  stream->joined = true;
  Simulator& sim = sharded_->shardSim(stream->shard);
  stream->task.startAt(latticeTick(sim.now(), stream->uid));
}

Status ShardedCluster::runScenario() {
  if (!setupStatus_.isOk()) return setupStatus_;
  if (!config_.scenario.enabled) {
    return failedPrecondition("runScenario: scenario not enabled");
  }
  if (scenarioRan_) {
    return failedPrecondition("runScenario: already ran");
  }
  scenarioRan_ = true;
  for (std::size_t p = 0; p < compiled_.phaseEnds.size(); ++p) {
    const SimTime target = scenarioBase_ + compiled_.phaseEnds[p];
    const SimDuration remaining = target - sharded_->now();
    if (remaining > SimDuration::zero()) sharded_->runFor(remaining);
    samplePhase(p);
  }
  return Status::ok();
}

void ShardedCluster::samplePhase(std::size_t phase) {
  // Cumulative snapshot at the phase boundary (every shard is barrier-synced
  // here: runScenario() only samples between runFor() segments), then delta
  // against the previous boundary.
  PhaseStats cum;
  cum.name = compiled_.phaseNames[phase];
  cum.end = compiled_.phaseEnds[phase];
  cum.rungOccupancy.assign(StreamDegrader::kLadder.size(), 0);
  for (const auto& s : streams_) {
    cum.submitted += s->client.submittedCount();
    cum.completed += s->client.completedCount();
    cum.deadlineMet += s->deadlineMet;
    cum.admissionRejected +=
        s->client.outcomeCount(FrameOutcome::kAdmissionRejected);
    cum.timedOut += s->client.outcomeCount(FrameOutcome::kTimedOut);
    cum.shed += s->client.outcomeCount(FrameOutcome::kShed);
    if (s->degrader != nullptr) {
      cum.degradeDowns += s->degrader->stepDowns();
      cum.degradeUps += s->degrader->stepUps();
    }
    if (s->task.running()) {
      ++cum.activeStreams;
      ++cum.rungOccupancy[s->degrader != nullptr ? s->degrader->rung() : 0];
    }
  }

  PhaseStats delta = cum;  // name/end/activeStreams/rungOccupancy stay as-is
  delta.submitted -= phaseCursor_.submitted;
  delta.completed -= phaseCursor_.completed;
  delta.deadlineMet -= phaseCursor_.deadlineMet;
  delta.admissionRejected -= phaseCursor_.admissionRejected;
  delta.timedOut -= phaseCursor_.timedOut;
  delta.shed -= phaseCursor_.shed;
  delta.degradeDowns -= phaseCursor_.degradeDowns;
  delta.degradeUps -= phaseCursor_.degradeUps;
  const SimDuration start =
      phase == 0 ? SimDuration::zero() : compiled_.phaseEnds[phase - 1];
  const double seconds =
      static_cast<double>((cum.end - start).count()) / 1e9;
  delta.attainment = delta.completed > 0
                         ? static_cast<double>(delta.deadlineMet) /
                               static_cast<double>(delta.completed)
                         : 1.0;
  delta.goodputFps =
      seconds > 0.0 ? static_cast<double>(delta.deadlineMet) / seconds : 0.0;
  phases_.push_back(std::move(delta));
  phaseCursor_ = std::move(cum);
}

ShardedCluster::StreamStats ShardedCluster::streamStats(
    std::size_t index) const {
  const Stream& stream = *streams_[index];
  StreamStats stats;
  stats.camera = nodeName(stream.client.clientNode());
  stats.crossRack = stream.crossRack;
  stats.churn = stream.churn;
  stats.joined = stream.joined;
  stats.departed = stream.departed;
  stats.submitted = stream.client.submittedCount();
  stats.completed = stream.client.completedCount();
  stats.failovers = stream.client.failoverCount();
  if (stream.degrader != nullptr) {
    stats.degradeDowns = stream.degrader->stepDowns();
    stats.degradeUps = stream.degrader->stepUps();
  }
  for (std::size_t o = 0; o < kFrameOutcomeCount; ++o) {
    stats.outcomes[o] =
        stream.client.outcomeCount(static_cast<FrameOutcome>(o));
  }
  stats.digest = stream.digest;
  return stats;
}

std::uint64_t ShardedCluster::totalSubmitted() const {
  std::uint64_t n = 0;
  for (const auto& s : streams_) n += s->client.submittedCount();
  return n;
}

std::uint64_t ShardedCluster::totalCompleted() const {
  std::uint64_t n = 0;
  for (const auto& s : streams_) n += s->client.completedCount();
  return n;
}

std::uint64_t ShardedCluster::outcomeTotal(FrameOutcome outcome) const {
  std::uint64_t n = 0;
  for (const auto& s : streams_) n += s->client.outcomeCount(outcome);
  return n;
}

std::uint64_t ShardedCluster::totalDegradeDowns() const {
  std::uint64_t n = 0;
  for (const auto& s : streams_) {
    if (s->degrader != nullptr) n += s->degrader->stepDowns();
  }
  return n;
}

std::uint64_t ShardedCluster::totalDegradeUps() const {
  std::uint64_t n = 0;
  for (const auto& s : streams_) {
    if (s->degrader != nullptr) n += s->degrader->stepUps();
  }
  return n;
}

std::uint64_t ShardedCluster::totalDeadlineMet() const {
  std::uint64_t n = 0;
  for (const auto& s : streams_) n += s->deadlineMet;
  return n;
}

std::uint64_t ShardedCluster::digest() const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    h = fnvFold(h, i);
    h = fnvFold(h, streams_[i]->digest);
  }
  return h;
}

std::string ShardedCluster::metricsJson(bool withSimStats) const {
  std::string out = strCat("{\n  \"streams\": [");
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const StreamStats stats = streamStats(i);
    out += strCat(i == 0 ? "\n" : ",\n", "    {\"camera\": \"", stats.camera,
                  "\", \"crossRack\": ", stats.crossRack ? "true" : "false",
                  ", \"submitted\": ", stats.submitted,
                  ", \"completed\": ", stats.completed,
                  ", \"failovers\": ", stats.failovers,
                  ", \"degradeDowns\": ", stats.degradeDowns,
                  ", \"degradeUps\": ", stats.degradeUps, ", \"outcomes\": [");
    for (std::size_t o = 0; o < kFrameOutcomeCount; ++o) {
      out += strCat(o == 0 ? "" : ", ", stats.outcomes[o]);
    }
    out += strCat("], \"digest\": ", stats.digest, "}");
  }
  out += strCat("\n  ],\n  \"totalSubmitted\": ", totalSubmitted(),
                ",\n  \"totalCompleted\": ", totalCompleted(),
                ",\n  \"totalAdmissionRejected\": ",
                outcomeTotal(FrameOutcome::kAdmissionRejected),
                ",\n  \"totalDegradeDowns\": ", totalDegradeDowns(),
                ",\n  \"totalDegradeUps\": ", totalDegradeUps(),
                ",\n  \"digest\": ", digest());
  if (config_.scenario.enabled) {
    // Scenario runs append the per-phase windowed metrics series; like the
    // rest of the dump it is pure counter arithmetic, so it sits on the
    // byte-compared differential path.
    out += strCat(",\n  \"scenario\": {\n    \"name\": \"",
                  config_.scenario.spec.name, "\",\n    \"fingerprint\": \"",
                  config_.scenario.spec.fingerprint(),
                  "\",\n    \"totalDeadlineMet\": ", totalDeadlineMet(),
                  ",\n    \"phases\": [");
    for (std::size_t p = 0; p < phases_.size(); ++p) {
      const PhaseStats& ph = phases_[p];
      out += strCat(p == 0 ? "\n" : ",\n", "      {\"name\": \"", ph.name,
                    "\", \"endMs\": ", ph.end.count() / 1000000,
                    ", \"submitted\": ", ph.submitted,
                    ", \"completed\": ", ph.completed,
                    ", \"deadlineMet\": ", ph.deadlineMet,
                    ", \"admissionRejected\": ", ph.admissionRejected,
                    ", \"timedOut\": ", ph.timedOut, ", \"shed\": ", ph.shed,
                    ", \"degradeDowns\": ", ph.degradeDowns,
                    ", \"degradeUps\": ", ph.degradeUps,
                    ", \"activeStreams\": ", ph.activeStreams,
                    ", \"attainment\": ", jsonFormatDouble(ph.attainment),
                    ", \"goodputFps\": ", jsonFormatDouble(ph.goodputFps),
                    ", \"rungOccupancy\": [");
      for (std::size_t r = 0; r < ph.rungOccupancy.size(); ++r) {
        out += strCat(r == 0 ? "" : ", ", ph.rungOccupancy[r]);
      }
      out += "]}";
    }
    out += "\n    ]\n  }";
  }
  if (withSimStats) {
    // Opt-in: window counts vary with shard count / window mode and stall
    // time is wall-clock — none of it may leak into the byte-compared
    // default dump (see header).
    out += strCat(",\n  \"sim\": {\n    \"windows\": ",
                  sharded_->windowCount(),
                  ",\n    \"adaptiveWindows\": ",
                  sharded_->adaptiveWindowCount(),
                  ",\n    \"crossShardMessages\": ",
                  sharded_->crossShardMessages(),
                  ",\n    \"busiestShardEvents\": ",
                  sharded_->busiestShardEvents(),
                  ",\n    \"eventsPerWindowHist\": [");
    const auto& hist = sharded_->eventsPerWindowHist();
    for (std::size_t b = 0; b < hist.size(); ++b) {
      out += strCat(b == 0 ? "" : ", ", hist[b]);
    }
    out += "],\n    \"perShardStallNanos\": [";
    const auto& stalls = sharded_->shardStallNanos();
    for (std::size_t s = 0; s < stalls.size(); ++s) {
      out += strCat(s == 0 ? "" : ", ", stalls[s]);
    }
    out += "]\n  }";
  }
  out += "\n}\n";
  return out;
}

}  // namespace microedge
