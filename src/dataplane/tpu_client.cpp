#include "dataplane/tpu_client.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace microedge {

std::string_view toString(FrameOutcome outcome) {
  switch (outcome) {
    case FrameOutcome::kInFlight:
      return "in-flight";
    case FrameOutcome::kCompleted:
      return "completed";
    case FrameOutcome::kTimedOut:
      return "timed-out";
    case FrameOutcome::kShed:
      return "shed";
    case FrameOutcome::kDroppedDeadTarget:
      return "dropped-dead-target";
    case FrameOutcome::kRejected:
      return "rejected";
    case FrameOutcome::kAdmissionRejected:
      return "admission-rejected";
  }
  return "unknown";
}

const std::string& FrameBreakdown::servedByName() const {
  static const std::string kEmpty;
  return servedBy.valid() ? tpuName(servedBy) : kEmpty;
}

TpuClient::TpuClient(ShardedSim& sharded, const ModelRegistry& registry,
                     SimTransport& transport, Directory directory,
                     Config config)
    : sim_(sharded.shardSim(
          sharded.shardOfNode(internNode(config.clientNode)))),
      registry_(registry), transport_(transport),
      directory_(std::move(directory)), config_(std::move(config)),
      sharded_(sharded), clientNode_(internNode(config_.clientNode)),
      model_(internModel(config_.model)), lb_(config_.spread) {
  lb_.setHealthConfig(config_.health);
  myShard_ = sharded_.shardOfNode(clientNode_);
}

Status TpuClient::configureLb(const LbConfig& config) {
  Status s = lb_.configure(config);
  if (!s.isOk() || !config_.admission.enabled) return s;
  // Capacity line = the pushed share weights (milli units). Control-plane
  // path: a local vector is fine here; the per-frame charge/credit path
  // below allocates nothing.
  std::vector<AdmissionLedger::TargetCapacity> targets;
  targets.reserve(lb_.config().weights.size());
  for (const LbWeight& w : lb_.config().weights) {
    targets.push_back({w.tpu, w.weight});
  }
  admission_.reconfigure(targets.data(), targets.size());
  // One model + one deadline per client, so the SLEDGE estimate
  // (execution / deadline) is a per-client constant. Zero disables the
  // per-frame check (no deadline, or the model is not registered yet —
  // deployments register models before pushing LB configs).
  const ModelInfo* info = registry_.byId(model_);
  if (info != nullptr && config_.frameDeadline > SimDuration::zero()) {
    const std::int64_t est =
        info->inferenceLatency.count() * 1000 / config_.frameDeadline.count();
    admissionEstimateMilli_ =
        static_cast<std::uint32_t>(std::max<std::int64_t>(1, est));
  } else {
    admissionEstimateMilli_ = 0;
  }
  return s;
}

TpuClient::~TpuClient() {
  // One id to cancel, however many frames are in flight (the harness keeps
  // clients alive until the simulation drains, but don't leave a timer
  // pointing at a dead `this` if someone tears down early).
  if (dlTimer_.valid()) sim_.cancel(dlTimer_);
  if (onDestroy_) onDestroy_(this);
}

// ---- Deadline queue ---------------------------------------------------------

void TpuClient::dlEnqueue(Handle h, InvokeContext* c) {
  c->dlPrev = dlTail_;
  c->dlNext = Handle{};
  if (dlTail_.valid()) {
    pool_.get(dlTail_)->dlNext = h;
  } else {
    dlHead_ = h;
  }
  dlTail_ = h;
  // Monotonic deadlines: an armed timer always targets a time <= this
  // frame's deadline, so only an idle queue needs a fresh event. During a
  // sweep the epilogue of onDeadlineTimer re-arms instead.
  if (!dlTimer_.valid() && !dlSweeping_) {
    dlTimer_ = sim_.schedule(c->deadlineAt, [this] { onDeadlineTimer(); });
  }
}

void TpuClient::dlUnlink(Handle h, InvokeContext* c) {
  const bool queued =
      c->dlPrev.valid() || c->dlNext.valid() || dlHead_ == h;
  if (!queued) return;  // frame terminated before it was ever enqueued
  if (c->dlPrev.valid()) {
    pool_.get(c->dlPrev)->dlNext = c->dlNext;
  } else {
    dlHead_ = c->dlNext;
  }
  if (c->dlNext.valid()) {
    pool_.get(c->dlNext)->dlPrev = c->dlPrev;
  } else {
    dlTail_ = c->dlPrev;
  }
  c->dlPrev = Handle{};
  c->dlNext = Handle{};
  // The timer deliberately stays armed — even when the queue just emptied.
  // It fires at the departed head's deadline, finds whatever is at the head
  // then, and re-arms forward (or lazily disarms on an empty queue). That
  // is at most one spurious wake per deadline window, instead of a heap
  // cancel per completing frame; the price is one pending no-op event that
  // can hold a fully-drained simulation for up to one frameDeadline.
}

void TpuClient::dlReplace(Handle h, InvokeContext* c, Handle nh,
                          InvokeContext* nc) {
  const bool queued =
      c->dlPrev.valid() || c->dlNext.valid() || dlHead_ == h;
  nc->dlPrev = c->dlPrev;
  nc->dlNext = c->dlNext;
  if (!queued) return;
  if (nc->dlPrev.valid()) {
    pool_.get(nc->dlPrev)->dlNext = nh;
  } else {
    dlHead_ = nh;
  }
  if (nc->dlNext.valid()) {
    pool_.get(nc->dlNext)->dlPrev = nh;
  } else {
    dlTail_ = nh;
  }
  c->dlPrev = Handle{};
  c->dlNext = Handle{};
}

void TpuClient::onDeadlineTimer() {
  dlTimer_ = EventId{};
  dlSweeping_ = true;  // completion callbacks may re-enter invoke()
  const SimTime now = sim_.now();
  while (dlHead_.valid()) {
    Handle h = dlHead_;
    InvokeContext* c = pool_.get(h);
    if (c->deadlineAt > now) break;
    // A timeout is breaker feedback: a hung service or a lossy link shows
    // up as frames that never come back.
    lb_.recordFailure(c->targetIndex, now);
    finish(h, FrameOutcome::kTimedOut);  // unlinks h, advancing dlHead_
  }
  dlSweeping_ = false;
  if (dlHead_.valid()) {
    dlTimer_ = sim_.rearmCurrentAfter(pool_.get(dlHead_)->deadlineAt - now);
  }
}

std::uint64_t TpuClient::frameMsgKey(std::uint64_t frameId,
                                     std::uint32_t attempt,
                                     std::uint32_t hop) const {
  // Full-avalanche, so adjacent frames of one stream decorrelate under a
  // loss window, and the key depends on nothing positional (lane, draw
  // order, shard count). Frame keys skip 0, so every recorded run replays
  // bit for bit.
  const std::uint64_t key = SimTransport::messageKey(
      config_.streamToken, frameId,
      (static_cast<std::uint64_t>(attempt) << 1) | hop);
  return key != 0 ? key : 1;
}

TpuService* TpuClient::routeToLiveTarget(std::size_t* index) {
  // Route at submit time (the WRR state only advances here). A healthy-state
  // draw that resolves to a removed service — the tRPi died between the
  // failure and the recovery reconfiguring our weights — feeds the breaker
  // and re-draws, so a dead target is masked after a few frames and the
  // pod's surviving shares carry the stream through the detection window.
  const SimTime now = sim_.now();
  const std::size_t attempts = lb_.config().weights.size() + 1;
  for (std::size_t i = 0; i < attempts; ++i) {
    std::size_t idx = lb_.routeHealthyIndex(now);
    if (idx == LbService::kNoTarget) return nullptr;
    TpuService* service = directory_(lb_.config().weights[idx].tpu);
    if (service != nullptr) {
      *index = idx;
      return service;
    }
    lb_.recordFailure(idx, now);
  }
  return nullptr;
}

Status TpuClient::invoke(CompletionCallback done) {
  if (stopped_) return failedPrecondition("TPU client is stopped");
  if (!lb_.configured()) {
    return failedPrecondition("TPU client LB not configured");
  }
  const ModelInfo* info = registry_.byId(model_);
  if (info == nullptr) {
    return notFound(strCat("model not registered: ", config_.model));
  }

  std::size_t index = 0;
  TpuService* service = routeToLiveTarget(&index);

  // Per-frame admission: charge the routed target's ledger entry before any
  // slab slot or transport event exists, so a rejection costs a stack-built
  // breakdown and nothing else. estimate == 0 means admission is off and the
  // submit path is untouched.
  std::uint32_t ledgerEntry = AdmissionLedger::kNoEntry;
  std::uint32_t ledgerCharge = 0;
  if (service != nullptr && admissionEstimateMilli_ != 0) {
    ledgerEntry = admission_.entryFor(lb_.config().weights[index].tpu);
    if (ledgerEntry != AdmissionLedger::kNoEntry) {
      if (!admission_.tryCharge(ledgerEntry, admissionEstimateMilli_)) {
        ++submitted_;
        ++failed_;
        ++outcomes_[static_cast<std::size_t>(
            FrameOutcome::kAdmissionRejected)];
        FrameBreakdown b;
        b.frameId = nextFrameId_++;
        b.submitted = sim_.now();
        b.outcome = FrameOutcome::kAdmissionRejected;
        if (done) done(b);
        return Status::ok();
      }
      ledgerCharge = admissionEstimateMilli_;
    }
  }

  ++submitted_;
  Handle h = pool_.acquire();
  InvokeContext* c = pool_.get(h);
  c->breakdown = FrameBreakdown{};
  c->breakdown.frameId = nextFrameId_++;
  c->breakdown.submitted = sim_.now();
  c->dlPrev = Handle{};  // recycled slot: clear stale queue links
  c->dlNext = Handle{};
  c->ledgerEntry = ledgerEntry;
  c->ledgerCharge = ledgerCharge;
  c->done = std::move(done);
  if (service == nullptr) {
    // Every target is dead or masked: terminal drop, explicitly counted (the
    // completion still fires so the application sees the loss).
    ME_LOG(kWarning) << "no reachable TPU service for " << config_.model
                     << "; frame dropped";
    finish(h, FrameOutcome::kDroppedDeadTarget);
    return Status::ok();
  }
  c->breakdown.preprocess = info->preprocessLatency;
  c->breakdown.servedBy = lb_.config().weights[index].tpu;
  c->serviceNode = service->nodeId();
  c->targetIndex = static_cast<std::uint32_t>(index);

  // Deadline: append to the client's intrusive deadline FIFO — a few index
  // writes; the one client-wide timer is armed only when the queue was
  // idle. No per-frame event, no allocation.
  if (config_.frameDeadline > SimDuration::zero()) {
    c->deadlineAt = c->breakdown.submitted + config_.frameDeadline;
    dlEnqueue(h, c);
  }

  // Stages 1+2 fused: client-side resize to the model's input resolution,
  // then the request hop. The preprocess stage delays departure
  // (departAfter) rather than taking its own event; only the wire latency
  // lands in requestTransmit.
  ship(h, c, /*departAfter=*/info->preprocessLatency);
  return Status::ok();
}

// ---- The frame pipeline -----------------------------------------------------

void TpuClient::ship(Handle h, InvokeContext* c, SimDuration departAfter) {
  const std::uint64_t frameId = c->breakdown.frameId;
  const std::uint32_t attempt = c->breakdown.failovers;
  bool dropped = false;
  const SimDuration latency = transport_.sendRouted(
      clientNode_, c->serviceNode, modelInfo().inputBytes(), &dropped,
      frameMsgKey(frameId, attempt, /*hop=*/0));
  // Transmit cost accumulates across attempts.
  c->breakdown.requestTransmit += latency;
  if (dropped) return;  // lost on the wire; the deadline timer notices
  const Hop hop{this,
                h,
                c->breakdown.servedBy,
                c->serviceNode,
                config_.frameDeadline > SimDuration::zero() ? c->deadlineAt
                                                            : SimTime::max(),
                frameMsgKey(frameId, attempt, /*hop=*/1)};
  // Cross-shard implies cross-node, so latency >= the network base latency
  // == the lookahead and the mailbox invariant holds.
  sharded_.postToShard(sharded_.shardOfNode(c->serviceNode),
                       sim_.now() + departAfter + latency,
                       [hop] { onArrival(hop); });
}

void TpuClient::onArrival(const Hop& hop) {
  // Stage 3: inference on the (serial, run-to-completion) TPU. The service
  // is resolved by dense handle at arrival: if it was removed while the
  // frame was on the wire, the frame fails over instead of touching a dead
  // instance. A frame that is already terminal needs no check here: it
  // timed out (so the shed predicate drops it) or failed over away from a
  // removed service (never re-added, so the directory says null).
  const TpuClient& client = *hop.client;
  TpuService* service = client.directory_(hop.target);
  if (service == nullptr) {
    nack(hop, Nack::kDeadTarget);
    return;
  }
  // Deadline-based shedding: if the device backlog plus our own service
  // time already overruns the deadline, drop now instead of queueing work
  // whose result nobody can use. Conservative (response hop and postprocess
  // are not included).
  if (hop.deadlineAt != SimTime::max()) {
    const SimTime now = client.sharded_.currentSim().now();
    const SimDuration estimate = client.modelInfo().inferenceLatency;
    if (now + service->device().estimatedBacklog(now, estimate) + estimate >
        hop.deadlineAt) {
      nack(hop, Nack::kShed);
      return;
    }
  }
  Status s = service->invoke(
      client.model_, [hop](const TpuDevice::InvokeStats& stats) {
        onDeviceDone(hop, stats);
      });
  if (!s.isOk()) nack(hop, Nack::kRejected);
}

void TpuClient::onDeviceDone(const Hop& hop,
                             const TpuDevice::InvokeStats& stats) {
  TpuClient* client = hop.client;
  // On the client's shard the slot is in reach: a terminal frame sends
  // nothing, and a live one keeps its device figures even if it then times
  // out or loses its response.
  InvokeContext* c = nullptr;
  if (client->onClientShard()) {
    c = client->pool_.get(hop.h);
    if (c == nullptr) return;
  }
  // Stages 4+5 fused: response hop back to the application pod, with the
  // post-processing stage folded into the delivery event (completion fires
  // at now + postprocess + latency).
  const ModelInfo& info = client->modelInfo();
  bool dropped = false;
  const SimDuration respLat = client->transport_.sendRouted(
      hop.serviceNode, client->clientNode_, info.outputBytes, &dropped,
      hop.respKey);
  if (c != nullptr) {
    c->breakdown.queueDelay = stats.queueDelay;
    c->breakdown.inference = stats.serviceTime;
    c->breakdown.postprocess = info.postprocessLatency;
    c->breakdown.responseTransmit = respLat;
  }
  if (dropped) return;
  client->sharded_.postToShard(
      client->myShard_,
      client->sharded_.currentSim().now() + info.postprocessLatency + respLat,
      [client, h = hop.h, queueDelay = stats.queueDelay,
       serviceTime = stats.serviceTime, respLat] {
        client->onResponse(h, queueDelay, serviceTime, respLat);
      });
}

void TpuClient::nack(const Hop& hop, Nack kind) {
  TpuClient* client = hop.client;
  if (client->onClientShard()) {
    client->onNack(hop.h, kind);  // resolved within the arrival event
    return;
  }
  // Across shards the client learns one control message later.
  const SimDuration delay = std::max(
      client->transport_.network().controlLatency(hop.serviceNode,
                                                  client->clientNode_),
      client->sharded_.lookahead());
  client->sharded_.postToShard(
      client->myShard_, client->sharded_.currentSim().now() + delay,
      [client, h = hop.h, kind] { client->onNack(h, kind); });
}

void TpuClient::onResponse(Handle h, SimDuration queueDelay,
                           SimDuration serviceTime,
                           SimDuration responseTransmit) {
  InvokeContext* c = pool_.get(h);
  if (c == nullptr) return;  // frame already terminal; stale event
  c->breakdown.queueDelay = queueDelay;
  c->breakdown.inference = serviceTime;
  c->breakdown.postprocess = modelInfo().postprocessLatency;
  c->breakdown.responseTransmit = responseTransmit;
  finish(h, FrameOutcome::kCompleted);
}

void TpuClient::onNack(Handle h, Nack kind) {
  InvokeContext* c = pool_.get(h);
  if (c == nullptr) return;  // already terminal or failed over; stale
  if (kind == Nack::kShed) {
    // Shedding is not breaker feedback: the target is alive, just
    // momentarily oversubscribed.
    finish(h, FrameOutcome::kShed);
    return;
  }
  lb_.recordFailure(c->targetIndex, sim_.now());
  if (tryFailover(h, c)) return;
  const bool dead = kind == Nack::kDeadTarget;
  ME_LOG(kWarning) << "TPU service " << c->breakdown.servedByName()
                   << (dead ? " vanished mid-flight" : " rejected the invoke")
                   << "; frame dropped";
  finish(h, dead ? FrameOutcome::kDroppedDeadTarget : FrameOutcome::kRejected);
}

bool TpuClient::tryFailover(Handle h, InvokeContext* c) {
  if (c->breakdown.failovers >= config_.maxFailovers) return false;
  std::size_t index = 0;
  TpuService* service = routeToLiveTarget(&index);
  if (service == nullptr) return false;

  // Move the frame into a fresh slot: the generation check then retires
  // every event still addressed to the old attempt (a completion from a
  // device that kept executing the first request, the old deadline timer)
  // without bookkeeping. Slot recycling is O(1) and allocation-free.
  Handle nh = pool_.acquire();
  InvokeContext* nc = pool_.get(nh);
  nc->breakdown = c->breakdown;
  nc->deadlineAt = c->deadlineAt;
  // The ledger charge follows the frame, not the attempt: the new slot
  // carries it to its terminal outcome (credited once, in finish); the old
  // slot is released below without ever reaching finish. The charge stays
  // against the original entry — conservation is per-frame, and re-charging
  // the failover target could deadlock a frame mid-recovery.
  nc->ledgerEntry = c->ledgerEntry;
  nc->ledgerCharge = c->ledgerCharge;
  c->ledgerCharge = 0;
  nc->done = std::move(c->done);
  c->done = nullptr;
  // The deadline is a property of the frame, not of the attempt: the new
  // slot takes over the old one's queue position (same absolute deadline,
  // so FIFO order is preserved) and the armed timer is untouched.
  dlReplace(h, c, nh, nc);
  pool_.release(h);

  ++nc->breakdown.failovers;
  ++failovers_;
  nc->breakdown.servedBy = lb_.config().weights[index].tpu;
  nc->serviceNode = service->nodeId();
  nc->targetIndex = static_cast<std::uint32_t>(index);
  // Re-ship the already-preprocessed frame to the new target.
  ship(nh, nc, SimDuration::zero());
  return true;
}

void TpuClient::finish(Handle h, FrameOutcome outcome) {
  InvokeContext* c = pool_.get(h);
  if (c == nullptr) return;
  dlUnlink(h, c);
  // Exactly-one-credit: finish is the single terminal path, so crediting
  // here covers every outcome — completion, timeout, shed, dead-target
  // drops, remote NACKs, and failover chains (the charge rode to this slot).
  if (c->ledgerCharge != 0) {
    admission_.credit(c->ledgerEntry, c->ledgerCharge);
    c->ledgerCharge = 0;
  }
  c->breakdown.outcome = outcome;
  ++outcomes_[static_cast<std::size_t>(outcome)];
  if (outcome == FrameOutcome::kCompleted) {
    c->breakdown.completed = sim_.now();
    lb_.recordSuccess(c->targetIndex);
    ++completed_;
  } else {
    ++failed_;
  }
  // Release the slot before running the completion: the callback may
  // re-enter invoke() (closed-loop drivers) and legitimately reuse it.
  FrameBreakdown result = c->breakdown;
  CompletionCallback done = std::move(c->done);
  c->done = nullptr;
  pool_.release(h);
  if (done) done(result);
}

void TpuClient::onServiceRemoved(TpuId tpu) {
  // Snapshot first: failovers acquire fresh slots while we walk the pool.
  std::vector<Handle> doomed;
  pool_.forEachLive([&](Handle h, InvokeContext& c) {
    if (c.breakdown.servedBy == tpu) doomed.push_back(h);
  });
  if (doomed.empty()) return;
  // Failover goes oldest frame first, not in pool-slot order: LIFO slot
  // reuse makes slot order depend on which frames finished first, so a
  // newer frame can sit in a lower slot than older ones on this target.
  std::sort(doomed.begin(), doomed.end(), [this](Handle a, Handle b) {
    return pool_.get(a)->breakdown.frameId < pool_.get(b)->breakdown.frameId;
  });
  const SimTime now = sim_.now();
  for (Handle h : doomed) {
    InvokeContext* c = pool_.get(h);
    if (c == nullptr) continue;
    lb_.recordFailure(c->targetIndex, now);
    if (!tryFailover(h, c)) finish(h, FrameOutcome::kDroppedDeadTarget);
  }
}

}  // namespace microedge
