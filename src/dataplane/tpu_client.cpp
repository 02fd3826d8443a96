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

TpuClient::TpuClient(ShardRouter& router, const ModelRegistry& registry,
                     SimTransport& transport, Directory directory,
                     Config config)
    : sim_(router.shardSim(router.shardOfNode(internNode(config.clientNode)))),
      registry_(registry), transport_(transport),
      directory_(std::move(directory)), config_(std::move(config)),
      router_(router), sharded_(router.shardCount() > 1),
      clientNode_(internNode(config_.clientNode)),
      model_(internModel(config_.model)), lb_(config_.spread) {
  lb_.setHealthConfig(config_.health);
  myShard_ = router_.shardOfNode(clientNode_);
}

Status TpuClient::configureLb(const LbConfig& config) {
  Status s = lb_.configure(config);
  if (!s.isOk() || !config_.admission.enabled) return s;
  // Capacity line = the pushed share weights (milli units) scaled by the
  // overcommit knob. Control-plane path: a local vector is fine here; the
  // per-frame charge/credit path below allocates nothing.
  std::vector<AdmissionLedger::TargetCapacity> targets;
  targets.reserve(lb_.config().weights.size());
  for (const LbWeight& w : lb_.config().weights) {
    targets.push_back({w.tpu, w.weight});
  }
  admission_.reconfigure(targets.data(), targets.size(),
                         config_.admission.overcommit);
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
  if (config_.streamToken == 0) return SimTransport::kUnkeyed;
  // splitMix64 chain over (token, frame, attempt, hop): full-avalanche, so
  // adjacent frames of one stream decorrelate under a loss window, and the
  // key depends on nothing positional (lane, draw order, shard count).
  std::uint64_t key = splitMix64(config_.streamToken ^ splitMix64(frameId));
  key = splitMix64(key ^ ((static_cast<std::uint64_t>(attempt) << 1) | hop));
  return key != 0 ? key : 1;  // 0 is reserved for "unkeyed"
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
  c->inputBytes = info->inputBytes();
  c->outputBytes = info->outputBytes;
  c->inferenceEstimate = info->inferenceLatency;
  c->postprocessLatency = info->postprocessLatency;
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
  if (sharded_ && router_.shardOfNode(c->serviceNode) != myShard_) {
    submitRemote(h, c, /*departAfter=*/info->preprocessLatency);
    return Status::ok();
  }
  c->breakdown.requestTransmit = transport_.send(
      clientNode_, c->serviceNode, c->inputBytes,
      [this, h] { onRequestDelivered(h); },
      /*departAfter=*/info->preprocessLatency,
      frameMsgKey(c->breakdown.frameId, /*attempt=*/0, /*hop=*/0));
  return Status::ok();
}

// ---- Batched ingest ---------------------------------------------------------

Status TpuClient::submitBurst(std::span<FrameSpec> frames) {
  if (stopped_) return failedPrecondition("TPU client is stopped");
  if (!lb_.configured()) {
    return failedPrecondition("TPU client LB not configured");
  }
  const ModelInfo* info = registry_.byId(model_);
  if (info == nullptr) {
    return notFound(strCat("model not registered: ", config_.model));
  }
  const std::size_t k = frames.size();
  if (k == 0) return Status::ok();

  // Burst prologue: one WRR cycle-cache walk and one slab-run acquisition
  // for the whole burst. Both are pure prefetches — every downstream
  // decision still happens per frame, in submit order, against live state.
  lb_.beginBurst(k);
  const std::size_t base = burstScratch_.size();
  pool_.acquireRun(k, burstScratch_);
  BurstState burst;
  const SimTime now = sim_.now();
  burst.deadlineAt = now + config_.frameDeadline;

  for (std::size_t i = 0; i < k; ++i) {
    std::size_t index = 0;
    TpuService* service = routeToLiveTarget(&index);
    // Same admission gate as invoke(), at the same sequential position. A
    // rejected frame gives back its pre-acquired slot and fires its callback
    // mid-burst exactly where sequential would — after a flush, so
    // re-entrant submissions observe sequential state.
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
          b.submitted = now;
          b.outcome = FrameOutcome::kAdmissionRejected;
          pool_.release(burstScratch_[base + i]);
          CompletionCallback done = std::move(frames[i].done);
          flushBurst(burst);
          if (done) done(b);
          continue;
        }
        ledgerCharge = admissionEstimateMilli_;
      }
    }
    ++submitted_;
    // Index by value each iteration: a re-entrant burst from a mid-loop
    // completion callback may reallocate the scratch vector.
    Handle h = burstScratch_[base + i];
    InvokeContext* c = pool_.get(h);
    c->breakdown = FrameBreakdown{};
    c->breakdown.frameId = nextFrameId_++;
    c->breakdown.submitted = now;
    c->dlPrev = Handle{};
    c->dlNext = Handle{};
    c->ledgerEntry = ledgerEntry;
    c->ledgerCharge = ledgerCharge;
    c->done = std::move(frames[i].done);
    if (service == nullptr) {
      ME_LOG(kWarning) << "no reachable TPU service for " << config_.model
                       << "; frame dropped";
      // Sequential fires this callback between frame i-1 and i+1; flush so
      // it observes (and its re-entrant submissions extend) the same
      // deadline-queue and event state it would have seen there.
      flushBurst(burst);
      finish(h, FrameOutcome::kDroppedDeadTarget);
      continue;
    }
    c->breakdown.preprocess = info->preprocessLatency;
    c->breakdown.servedBy = lb_.config().weights[index].tpu;
    c->serviceNode = service->nodeId();
    c->inputBytes = info->inputBytes();
    c->outputBytes = info->outputBytes;
    c->inferenceEstimate = info->inferenceLatency;
    c->postprocessLatency = info->postprocessLatency;
    c->targetIndex = static_cast<std::uint32_t>(index);
    if (config_.frameDeadline > SimDuration::zero()) {
      // Locally-linked chain, spliced onto the queue in one append at flush
      // (all frames of the burst share submit time, hence deadline).
      c->deadlineAt = burst.deadlineAt;
      c->dlPrev = burst.chainTail;
      if (burst.chainTail.valid()) {
        pool_.get(burst.chainTail)->dlNext = h;
      } else {
        burst.chainHead = h;
      }
      burst.chainTail = h;
    }
    if (sharded_ && router_.shardOfNode(c->serviceNode) != myShard_) {
      // Cross-shard frames stay per-frame: mailbox sequence numbers must
      // preserve submit order, and the remote path allocates anyway.
      submitRemote(h, c, /*departAfter=*/info->preprocessLatency);
      continue;
    }
    // Coalesce by arrival latency. The network charges every non-loopback
    // pair the same base + size cost, so all non-loopback frames of the
    // burst share one delivery timestamp regardless of target node — one
    // event replaces up to k. Loopback (a target on the client's own node)
    // is the one other latency class.
    const int which = c->serviceNode == clientNode_ ? 1 : 0;
    GroupHandle& gh = burst.group[which];
    if (!gh.valid()) {
      gh = groupPool_.acquire();
      groupPool_.get(gh)->members.clear();
    }
    groupPool_.get(gh)->members.push_back(h);
  }
  flushBurst(burst);
  burstScratch_.resize(base);
  return Status::ok();
}

void TpuClient::flushBurst(BurstState& burst) {
  // Deadline splice first: sequential arms the timer during the first
  // routed frame's dlEnqueue, before any delivery event is scheduled, so
  // the timer's event id sorts ahead of same-timestamp deliveries.
  if (burst.chainHead.valid()) {
    pool_.get(burst.chainHead)->dlPrev = dlTail_;
    if (dlTail_.valid()) {
      pool_.get(dlTail_)->dlNext = burst.chainHead;
    } else {
      dlHead_ = burst.chainHead;
    }
    dlTail_ = burst.chainTail;
    if (!dlTimer_.valid() && !dlSweeping_) {
      dlTimer_ =
          sim_.schedule(burst.deadlineAt, [this] { onDeadlineTimer(); });
    }
    burst.chainHead = Handle{};
    burst.chainTail = Handle{};
  }
  closeBurstGroup(burst, 0);
  closeBurstGroup(burst, 1);
}

void TpuClient::closeBurstGroup(BurstState& burst, int which) {
  GroupHandle gh = burst.group[which];
  if (!gh.valid()) return;
  burst.group[which] = GroupHandle{};
  BurstGroup* g = groupPool_.get(gh);
  const std::size_t n = g->members.size();
  InvokeContext* first = pool_.get(g->members[0]);
  keyScratch_.clear();
  for (Handle h : g->members) {
    InvokeContext* c = pool_.get(h);
    keyScratch_.push_back(
        frameMsgKey(c->breakdown.frameId, c->breakdown.failovers, /*hop=*/0));
  }
  latScratch_.resize(n);
  dropScratch_.resize(n);
  // The first member's node stands in for the whole group: every member
  // shares the latency class `which` encodes (all non-loopback pairs model
  // to the same latency for equal bytes), and the transport's accounting
  // never records endpoints — so counters, draws and latencies are exactly
  // the member-wise ones.
  bool scheduled = transport_.sendCoalesced(
      clientNode_, first->serviceNode, first->inputBytes, keyScratch_.data(),
      n, dropScratch_.data(), latScratch_.data(),
      [this, gh] { onBurstDelivered(gh); },
      /*departAfter=*/first->breakdown.preprocess);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    InvokeContext* c = pool_.get(g->members[i]);
    c->breakdown.requestTransmit = latScratch_[i];
    // A message the fault window ate never delivers (send() semantics): the
    // frame leaves the fan-out list and sits in flight until its deadline.
    if (dropScratch_[i] == 0) g->members[kept++] = g->members[i];
  }
  g->members.resize(kept);
  if (!scheduled) {
    g->members.clear();
    groupPool_.release(gh);
  }
}

void TpuClient::onBurstDelivered(GroupHandle gh) {
  BurstGroup* g = groupPool_.get(gh);
  if (g == nullptr) return;
  // Batched FIFO reservation: one capacity hint per same-target run before
  // the per-frame invokes push. Purely pre-sizing — no queue contents move.
  const std::size_t n = g->members.size();
  std::size_t i = 0;
  while (i < n) {
    InvokeContext* c = pool_.get(g->members[i]);
    if (c == nullptr) {
      ++i;  // frame terminated while the burst was on the wire
      continue;
    }
    std::size_t run = 1;
    while (i + run < n) {
      InvokeContext* next = pool_.get(g->members[i + run]);
      if (next == nullptr || !(next->breakdown.servedBy == c->breakdown.servedBy)) {
        break;
      }
      ++run;
    }
    if (run > 1) {
      TpuService* service = directory_(c->breakdown.servedBy);
      if (service != nullptr) service->reserveBacklog(run);
    }
    i += run;
  }
  // Fan out in submit order == the order sequential deliveries (consecutive
  // event ids at one timestamp) would have executed.
  for (Handle h : g->members) onRequestDelivered(h);
  g->members.clear();
  groupPool_.release(gh);
}

// ---- Cross-shard remote path ------------------------------------------------

void TpuClient::submitRemote(Handle h, InvokeContext* c,
                             SimDuration departAfter) {
  bool dropped = false;
  SimDuration reqLat = transport_.sendRouted(
      clientNode_, c->serviceNode, c->inputBytes, &dropped,
      frameMsgKey(c->breakdown.frameId, c->breakdown.failovers, /*hop=*/0));
  c->breakdown.requestTransmit += reqLat;
  if (dropped) return;  // lost on the wire; the deadline timer notices
  RemoteHop hop;
  hop.client = this;
  hop.h = h;
  hop.target = c->breakdown.servedBy;
  hop.model = model_;
  hop.serviceNode = c->serviceNode;
  hop.clientNode = clientNode_;
  hop.clientShard = myShard_;
  hop.inferenceEstimate = c->inferenceEstimate;
  hop.deadlineAt = config_.frameDeadline > SimDuration::zero()
                       ? c->deadlineAt
                       : SimTime::max();
  hop.outputBytes = c->outputBytes;
  hop.postprocess = c->postprocessLatency;
  hop.respKey =
      frameMsgKey(c->breakdown.frameId, c->breakdown.failovers, /*hop=*/1);
  // Arrival time is exactly the solo path's: now + departAfter + transfer
  // latency. Cross-shard implies cross-node, so reqLat >= the network base
  // latency == the router's lookahead and the mailbox invariant holds.
  const SimTime arriveAt = sim_.now() + departAfter + reqLat;
  router_.postToShard(router_.shardOfNode(c->serviceNode), arriveAt,
                      [hop] { remoteArrival(hop); });
}

void TpuClient::remoteArrival(RemoteHop hop) {
  // Runs on the service shard: only the envelope, the service's own state
  // and this shard's transport lane may be touched here.
  TpuClient* client = hop.client;
  Simulator& sim = client->router_.currentSim();
  TpuService* service = client->directory_(hop.target);
  if (service == nullptr) {
    postRemoteNack(hop, RemoteNack::kDeadTarget);
    return;
  }
  // Deadline-based shedding, same predicate as onRequestDelivered.
  if (hop.deadlineAt != SimTime::max()) {
    SimDuration wait =
        service->device().estimatedBacklog(sim.now(), hop.inferenceEstimate);
    if (sim.now() + wait + hop.inferenceEstimate > hop.deadlineAt) {
      postRemoteNack(hop, RemoteNack::kShed);
      return;
    }
  }
  Status s = service->invoke(
      hop.model, [hop](const TpuDevice::InvokeStats& stats) {
        remoteComplete(hop, stats);
      });
  if (!s.isOk()) postRemoteNack(hop, RemoteNack::kRejected);
}

void TpuClient::remoteComplete(const RemoteHop& hop,
                               const TpuDevice::InvokeStats& stats) {
  // Still on the service shard, at the device's finish time t2. The
  // response hop is modelled on this shard's lane; the client-side
  // completion lands at t2 + postprocess + respLat — identical to the solo
  // formulation's fused stages 4+5.
  TpuClient* client = hop.client;
  Simulator& sim = client->router_.currentSim();
  bool dropped = false;
  SimDuration respLat = client->transport_.sendRouted(
      hop.serviceNode, hop.clientNode, hop.outputBytes, &dropped, hop.respKey);
  if (dropped) return;
  const SimTime deliverAt = sim.now() + hop.postprocess + respLat;
  client->router_.postToShard(
      hop.clientShard, deliverAt,
      [client, h = hop.h, queueDelay = stats.queueDelay,
       serviceTime = stats.serviceTime, respLat] {
        client->onRemoteDone(h, queueDelay, serviceTime, respLat);
      });
}

void TpuClient::postRemoteNack(const RemoteHop& hop, RemoteNack kind) {
  // Arrival-time failure: solo resolves these synchronously on the client;
  // cross-shard the client learns one control message later. Zero-byte
  // piggyback — deliberately not counted in the transport's counters.
  TpuClient* client = hop.client;
  Simulator& sim = client->router_.currentSim();
  SimDuration delay = std::max(
      client->transport_.network().controlLatency(hop.serviceNode,
                                                  hop.clientNode),
      client->router_.lookahead());
  client->router_.postToShard(
      hop.clientShard, sim.now() + delay,
      [client, h = hop.h, kind] { client->onRemoteNack(h, kind); });
}

void TpuClient::onRemoteDone(Handle h, SimDuration queueDelay,
                             SimDuration serviceTime,
                             SimDuration responseTransmit) {
  InvokeContext* c = pool_.get(h);
  if (c == nullptr) return;  // frame already terminal; stale event
  c->breakdown.queueDelay = queueDelay;
  c->breakdown.inference = serviceTime;
  c->breakdown.postprocess = c->postprocessLatency;
  c->breakdown.responseTransmit = responseTransmit;
  finish(h, FrameOutcome::kCompleted);
}

void TpuClient::onRemoteNack(Handle h, RemoteNack kind) {
  InvokeContext* c = pool_.get(h);
  if (c == nullptr) return;  // deadline beat the NACK home; stale event
  switch (kind) {
    case RemoteNack::kShed:
      // Mirrors onRequestDelivered: shedding is not breaker feedback (the
      // target is alive, just oversubscribed).
      finish(h, FrameOutcome::kShed);
      return;
    case RemoteNack::kDeadTarget:
      lb_.recordFailure(c->targetIndex, sim_.now());
      if (!tryFailover(h, c)) finish(h, FrameOutcome::kDroppedDeadTarget);
      return;
    case RemoteNack::kRejected:
      lb_.recordFailure(c->targetIndex, sim_.now());
      if (!tryFailover(h, c)) finish(h, FrameOutcome::kRejected);
      return;
  }
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
  nc->inputBytes = c->inputBytes;
  nc->outputBytes = c->outputBytes;
  nc->inferenceEstimate = c->inferenceEstimate;
  nc->postprocessLatency = c->postprocessLatency;
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
  // Re-ship the already-preprocessed frame to the new target; transmit cost
  // accumulates across attempts.
  if (sharded_ && router_.shardOfNode(nc->serviceNode) != myShard_) {
    submitRemote(nh, nc, SimDuration::zero());
    return true;
  }
  nc->breakdown.requestTransmit += transport_.send(
      clientNode_, nc->serviceNode, nc->inputBytes,
      [this, nh] { onRequestDelivered(nh); }, SimDuration::zero(),
      frameMsgKey(nc->breakdown.frameId, nc->breakdown.failovers, /*hop=*/0));
  return true;
}

void TpuClient::onRequestDelivered(Handle h) {
  InvokeContext* c = pool_.get(h);
  if (c == nullptr) return;  // frame already terminal; stale event
  // Stage 3: inference on the (serial, run-to-completion) TPU. The service
  // is re-resolved by dense handle at arrival — if it was removed while the
  // frame was on the wire, the frame fails over instead of touching a dead
  // instance.
  TpuService* service = directory_(c->breakdown.servedBy);
  if (service == nullptr) {
    lb_.recordFailure(c->targetIndex, sim_.now());
    if (!tryFailover(h, c)) {
      ME_LOG(kWarning) << "TPU service " << c->breakdown.servedByName()
                       << " vanished mid-flight; frame dropped";
      finish(h, FrameOutcome::kDroppedDeadTarget);
    }
    return;
  }
  // Deadline-based shedding: if the device backlog plus our own service
  // time already overruns the deadline, drop now instead of queueing work
  // whose result nobody can use. Conservative (response hop and postprocess
  // are not included) and no breaker feedback — the target is alive, just
  // momentarily oversubscribed.
  if (config_.frameDeadline > SimDuration::zero()) {
    SimDuration wait =
        service->device().estimatedBacklog(sim_.now(), c->inferenceEstimate);
    if (sim_.now() + wait + c->inferenceEstimate > c->deadlineAt) {
      finish(h, FrameOutcome::kShed);
      return;
    }
  }
  Status s = service->invoke(model_, [this, h](const TpuDevice::InvokeStats&
                                                   stats) {
    onInvokeDone(h, stats);
  });
  if (!s.isOk()) {
    lb_.recordFailure(c->targetIndex, sim_.now());
    if (!tryFailover(h, c)) {
      ME_LOG(kWarning) << "invoke on " << c->breakdown.servedByName()
                       << " failed: " << s.toString();
      finish(h, FrameOutcome::kRejected);
    }
  }
}

void TpuClient::onInvokeDone(Handle h, const TpuDevice::InvokeStats& stats) {
  InvokeContext* c = pool_.get(h);
  if (c == nullptr) return;
  c->breakdown.queueDelay = stats.queueDelay;
  c->breakdown.inference = stats.serviceTime;
  c->breakdown.postprocess = c->postprocessLatency;
  // Stages 4+5 fused: response hop back to the application pod, with the
  // post-processing stage folded into the delivery event (departAfter on
  // the receive side is symmetric: completion fires at
  // now + latency + postprocess either way).
  c->breakdown.responseTransmit = transport_.send(
      c->serviceNode, clientNode_, c->outputBytes,
      [this, h] { finish(h, FrameOutcome::kCompleted); },
      /*departAfter=*/c->postprocessLatency,
      frameMsgKey(c->breakdown.frameId, c->breakdown.failovers, /*hop=*/1));
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
  // Canonical submission order, not pool-slot order: slot identities differ
  // between invoke() and submitBurst() (run acquisition vs LIFO recycling),
  // so the broadcast's failover/breaker sequence must key on frame ids to
  // stay bit-identical across ingest modes.
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
