#pragma once

// TPU Client (§5.2): the library an application pod links to issue Invoke
// requests against its allocated TPU share.
//
// Per the paper, the client resizes the raw frame to the model's input
// resolution *before* transmission (data movement dominates on RPis), asks
// its LB Service for the target TPU, ships the pre-processed frame to the
// hosting tRPi, and hands the response to application post-processing. The
// full per-frame latency breakdown (Fig. 7b's four components, plus queueing
// visibility inside the TPU Service) is reported on completion.
//
// Fast path: the per-frame pipeline is heap-allocation-free and string-free
// in steady state. Frame state lives in a slab pool of InvokeContext slots
// addressed by generation-checked handles; each pipeline stage captures
// {this, handle} (16 bytes — inline in its event slot) and re-resolves the
// context on entry, so a dropped frame's stale events are rejected instead
// of dereferencing recycled state. Routing, transport and the TPU Service
// all speak dense interned handles (TpuId / NodeId / ModelId); the client
// interns its node and model once at construction. The frame takes three
// simulator events end to end (arrival at the service, device completion,
// client completion) — preprocess rides the request hop and postprocess the
// response hop, with identical timestamps to the five-event formulation.
//
// Reliability: every frame reaches exactly one terminal FrameOutcome and
// the completion callback fires for all of them (apps gate on kCompleted).
// With a frameDeadline configured, in-flight frames sit on an intrusive
// deadline queue threaded through their slab slots. All frames of a client
// share one deadline duration, so absolute deadlines are monotonic in
// submit order and the queue is FIFO — ONE timer event per client, armed
// for the head frame's deadline, replaces a schedule/cancel pair per frame.
// Enqueue/unlink are a handful of index writes, completions leave the
// armed timer alone (it re-arms forward when it fires and finds the head
// still alive), and the whole layer stays allocation-free and costs ~zero
// when nothing misses its deadline. A frame that lands on a
// dead or rejecting target feeds the LB Service's per-target circuit
// breaker and takes one bounded failover: it moves to a fresh slab slot (so
// the generation check retires every event addressed to the old attempt)
// and re-ships to the next healthy target the WRR picks. At arrival the
// client sheds frames whose predicted completion (device backlog + one
// service time) already misses the deadline, so an overloaded surviving
// pool degrades by dropping late frames instead of queueing without bound.
//
// Object lifetime: completions reference the client; the experiment harness
// keeps client objects alive until the simulation drains (a stopped client
// simply refuses new invokes).
//
// Sharded runs: a client is bound to its node's shard (its Simulator& IS
// that shard's event loop; invoke() and every client-side stage run there).
// A frame whose target TPU lives on another shard takes the remote path:
// the request hop is modelled with SimTransport::sendRouted (accounting on
// the client shard's lane) and a RemoteHop envelope — a POD copy of
// everything the service side needs — is posted through the router's
// mailbox to arrive at exactly the same timestamp the solo path would
// deliver it. The service-shard stages (arrival, shed check, device invoke,
// completion) touch only service-shard state plus the envelope, then post
// the response back; timestamps of the healthy pipeline are bit-identical
// to the solo path. Failure NACKs (dead target, shed, reject) are the one
// divergence: solo resolves them instantly on the client, cross-shard they
// ride a control message back (one controlLatency >= lookahead later) —
// the differential suite keeps deadline-carrying streams rack-local so
// these paths never occur cross-shard. NACKs are zero-byte control
// piggybacks and are not counted in the transport's message counters.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/admission_ledger.hpp"
#include "dataplane/lb_service.hpp"
#include "dataplane/tpu_service.hpp"
#include "dataplane/transport.hpp"
#include "models/registry.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/simulator.hpp"
#include "util/event_fn.hpp"
#include "util/intern.hpp"
#include "util/slab_pool.hpp"

namespace microedge {

// Terminal state of one frame. Every submitted frame ends in exactly one of
// the non-kInFlight states and is counted there (BreakdownAggregator);
// failover is not a terminal state but a counter (a failed-over frame still
// ends kCompleted / kTimedOut / ...).
enum class FrameOutcome : std::uint8_t {
  kInFlight = 0,        // not terminal: frame still in the pipeline
  kCompleted,           // post-processing finished
  kTimedOut,            // frameDeadline elapsed before completion
  kShed,                // dropped at arrival: backlog already blows the deadline
  kDroppedDeadTarget,   // no live target (at submit, mid-flight, or failover)
  kRejected,            // target's invoke refused and no failover possible
  // Per-frame admission ledger said no at submit: the routed target has no
  // estimate headroom. Deliberately the LAST enumerator — the digest
  // witnesses fold outcomes as integers, so appending keeps every
  // admission-off digest identical to before the ledger existed.
  kAdmissionRejected,
};
inline constexpr std::size_t kFrameOutcomeCount = 7;
std::string_view toString(FrameOutcome outcome);

struct FrameBreakdown {
  std::uint64_t frameId = 0;
  TpuId servedBy{};  // dense TPU handle; servedByName() resolves the string
  FrameOutcome outcome = FrameOutcome::kInFlight;
  std::uint8_t failovers = 0;  // re-routes this frame took before terminating
  SimTime submitted{};
  SimTime completed{};
  SimDuration preprocess{};
  SimDuration requestTransmit{};
  SimDuration queueDelay{};
  SimDuration inference{};  // device occupancy incl. switch/stream penalties
  SimDuration responseTransmit{};
  SimDuration postprocess{};

  SimDuration endToEnd() const { return completed - submitted; }
  // String id of the serving TPU (empty if the frame never routed).
  const std::string& servedByName() const;
};

class TpuClient {
 public:
  struct Config {
    std::string clientNode;  // RPi hosting the application pod
    std::string model;
    LbSpread spread = LbSpread::kSmooth;
    // Per-frame deadline measured from submit; zero disables the deadline
    // timer AND deadline-based shedding (seed behaviour).
    SimDuration frameDeadline{};
    // Re-route budget per frame when its target dies or rejects.
    std::uint32_t maxFailovers = 1;
    LbHealthConfig health{};
    // Stable identity of this client's frame stream for keyed transport-loss
    // draws: with a nonzero token, whether a frame drops under a loss window
    // is a pure function of (fault seed, token, frame id, attempt, hop) —
    // invariant to shard count, submission batching, and every other
    // stream's traffic. Zero keeps the legacy per-lane sequential draws.
    // DataPlane::makeClient auto-assigns a token when left at zero.
    std::uint64_t streamToken = 0;
    // Per-frame admission (DESIGN.md §14). Disabled keeps the submit path
    // bit-identical to a ledger-free build.
    FrameAdmissionConfig admission{};
  };
  // Resolves a TPU handle to its TPU Service instance (nullptr if gone).
  // Dense-handle lookup so per-frame routing never touches a string map.
  using Directory = std::function<TpuService*(TpuId tpu)>;
  // Move-only SBO callable: completions with inline-sized captures ride the
  // context slot without a std::function heap allocation per frame.
  using CompletionCallback = MoveFn<void(const FrameBreakdown&)>;

  // `sim` must be the event loop of the client node's shard; `router` (may
  // be null, and may be a SoloRouter) enables the cross-shard remote path —
  // with a null router or shardCount() == 1 the client behaves exactly as
  // before sharding existed.
  TpuClient(Simulator& sim, const ModelRegistry& registry,
            SimTransport& transport, Directory directory, Config config,
            ShardRouter* router = nullptr);
  ~TpuClient();

  // Seeds the embedded LB Service (done by the extended scheduler at pod
  // initialization, §3.1 step 4) and, with admission enabled, rebuilds the
  // ledger's capacity line from the pushed weights (share milli-units).
  Status configureLb(const LbConfig& config);
  bool ready() const { return lb_.configured() && !stopped_; }

  // Submits one frame through the full pipeline. `done` fires once the
  // frame reaches its terminal outcome (kCompleted after post-processing;
  // other outcomes possibly synchronously, e.g. no live target at submit).
  Status invoke(CompletionCallback done);

  // One frame of a burst; completion callbacks are moved out on submit.
  struct FrameSpec {
    CompletionCallback done;
  };
  // Batched ingest: submits `frames.size()` frames exactly as that many
  // sequential invoke() calls would — bit-identical per-frame timings and
  // outcomes — but amortizes the per-frame machinery across the burst:
  //  * one slab-run acquisition instead of k free-list probes;
  //  * one raw-WRR cycle-cache walk (LbService::beginBurst) instead of k
  //    credit scans, with the health filter still applied per frame at
  //    serve time;
  //  * frames sharing an arrival latency (all non-loopback targets of one
  //    model do — the network charges the same base + size cost to every
  //    non-loopback pair) coalesce into ONE transport delivery event that
  //    fans out in submit order on arrival, batching the device FIFO
  //    reservations per same-target run;
  //  * one deadline-FIFO splice per burst instead of k list appends.
  // Synchronous terminal outcomes (e.g. no live target) still fire their
  // callbacks mid-burst at exactly the sequential position: pending burst
  // state is flushed before each such callback, so re-entrant submissions
  // observe the same queue/transport/WRR state either way. Under an active
  // loss window, bit-identity to sequential additionally requires a keyed
  // client (nonzero streamToken) — unkeyed draws are order-dependent.
  // An empty burst is a no-op. The single-frame invoke() stays canonical.
  Status submitBurst(std::span<FrameSpec> frames);

  // Stops accepting new frames (pod termination); in-flight frames finish.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Fail-fast notification from the DataPlane: `tpu`'s service was removed.
  // Every in-flight frame addressed to it immediately fails over (budget
  // permitting) or terminates kDroppedDeadTarget — nothing waits for an
  // arrival event at a dead service.
  void onServiceRemoved(TpuId tpu);
  // Owner hook invoked from the destructor (DataPlane unregisters the
  // client from its fail-fast broadcast list).
  void setOnDestroy(std::function<void(TpuClient*)> hook) {
    onDestroy_ = std::move(hook);
  }

  const Config& config() const { return config_; }
  LbService& lbService() { return lb_; }
  const LbService& lbService() const { return lb_; }
  std::uint64_t submittedCount() const { return submitted_; }
  std::uint64_t completedCount() const { return completed_; }
  // Frames that reached a terminal outcome other than kCompleted.
  std::uint64_t failedCount() const { return failed_; }
  std::uint64_t outcomeCount(FrameOutcome outcome) const {
    return outcomes_[static_cast<std::size_t>(outcome)];
  }
  // Successful re-routes (frames may appear in a terminal count too).
  std::uint64_t failoverCount() const { return failovers_; }
  std::uint64_t outstanding() const {
    return submitted_ - completed_ - failed_;
  }
  // Live context slots (== outstanding()); exposed for pool-accounting tests.
  std::size_t contextsInFlight() const { return pool_.inUse(); }
  // Context slots allocated, live or free: under twice the in-flight
  // high-water mark.
  std::size_t contextCapacity() const { return pool_.capacity(); }
  // Per-frame admission ledger (meaningful only with admission enabled).
  const AdmissionLedger& admissionLedger() const { return admission_; }

 private:
  // All per-frame pipeline state (breakdown, the model's POD cost figures,
  // completion) lives in one recycled pool slot so each stage's closure
  // captures just {this, handle} — small enough to stay inline in the event
  // slot — and no string or heap allocation recurs per frame.
  struct InvokeContext;
  using ContextPool = SlabPool<InvokeContext>;
  using Handle = ContextPool::Handle;

  struct InvokeContext {
    FrameBreakdown breakdown{};
    NodeId serviceNode{};
    std::size_t inputBytes = 0;
    std::size_t outputBytes = 0;
    SimDuration inferenceEstimate{};  // model service time, for shedding
    SimDuration postprocessLatency{};
    SimTime deadlineAt{};
    // Intrusive deadline-queue links (valid while the frame is enqueued).
    Handle dlPrev{};
    Handle dlNext{};
    std::uint32_t targetIndex = 0;  // index into lb_.config().weights
    // Admission-ledger charge riding the frame: credited exactly once in
    // finish(), whatever the terminal outcome. ledgerCharge == 0 marks "not
    // charged" (admission off, or the frame was rejected up front).
    std::uint32_t ledgerEntry = AdmissionLedger::kNoEntry;
    std::uint32_t ledgerCharge = 0;
    CompletionCallback done;
  };

  // Why a cross-shard NACK exists: the service-shard stages cannot touch
  // the client's slab pool or LB state, so arrival-time failures are
  // reported back as a control message and resolved on the client's shard.
  enum class RemoteNack : std::uint8_t { kDeadTarget, kShed, kRejected };

  // Everything the service-shard stages need, copied out of the context
  // slot at submit time (the slot itself is client-shard state and may be
  // concurrently recycled). ~90 bytes; posting it through the mailbox costs
  // one MoveFn heap allocation per cross-shard frame — the price of leaving
  // the same-shard fast path allocation-free.
  struct RemoteHop {
    TpuClient* client = nullptr;
    Handle h{};
    TpuId target{};
    ModelId model{};
    NodeId serviceNode{};
    NodeId clientNode{};
    unsigned clientShard = 0;
    SimDuration inferenceEstimate{};
    SimTime deadlineAt{};  // SimTime::max() when the frame has no deadline
    std::size_t outputBytes = 0;
    SimDuration postprocess{};
    // Keyed-loss key for the response hop, precomputed on the client shard
    // (the service shard must not reach into client config to derive it).
    std::uint64_t respKey = 0;
  };

  // Client-shard half of the remote path: models the request hop on this
  // shard's transport lane and posts the envelope to the service shard at
  // the exact solo-path arrival time (now + departAfter + transfer latency).
  void submitRemote(Handle h, InvokeContext* c, SimDuration departAfter);
  // Service-shard stages (static: they run on another shard's event loop
  // and must only touch the envelope + service-shard state).
  static void remoteArrival(RemoteHop hop);
  static void remoteComplete(const RemoteHop& hop,
                             const TpuDevice::InvokeStats& stats);
  static void postRemoteNack(const RemoteHop& hop, RemoteNack kind);
  // Client-shard completions of the remote path.
  void onRemoteDone(Handle h, SimDuration queueDelay, SimDuration serviceTime,
                    SimDuration responseTransmit);
  void onRemoteNack(Handle h, RemoteNack kind);

  // Draws healthy targets from the LB until one resolves to a live service
  // (each dead draw feeds the breaker). Returns nullptr when none does.
  TpuService* routeToLiveTarget(std::size_t* index);
  // Moves the frame to a fresh slot and re-ships it to the next healthy
  // target. Returns false (context untouched) when the failover budget is
  // spent or no live target remains; on true the old handle is dead.
  bool tryFailover(Handle h, InvokeContext* c);
  void onRequestDelivered(Handle h);
  void onInvokeDone(Handle h, const TpuDevice::InvokeStats& stats);
  // Deadline queue: FIFO == deadline order because every frame of this
  // client carries the same frameDeadline (failover keeps the absolute
  // deadline, so position is preserved there too).
  void dlEnqueue(Handle h, InvokeContext* c);
  void dlUnlink(Handle h, InvokeContext* c);
  // Failover: the frame moved from slot `h` to `nh`; splice the new handle
  // into the old one's queue position.
  void dlReplace(Handle h, InvokeContext* c, Handle nh, InvokeContext* nc);
  // The client-wide deadline timer: expires every head frame whose deadline
  // has passed, then re-arms for the new head (or disarms when idle).
  void onDeadlineTimer();
  // Terminates the frame: unlinks it from the deadline queue, stamps +
  // counts the outcome, recycles the slot, and runs the completion callback.
  void finish(Handle h, FrameOutcome outcome);

  // ---- Burst machinery ------------------------------------------------------
  // A coalesced delivery's fan-out list: the handles of the burst frames
  // sharing one arrival event, in submit order. Pooled so the vector's
  // capacity is retained across recycling (zero allocations in steady
  // state).
  struct BurstGroup {
    std::vector<Handle> members;
  };
  using GroupPool = SlabPool<BurstGroup>;
  using GroupHandle = GroupPool::Handle;
  // Open coalesced groups while a burst is being built (locals of
  // submitBurst, passed down so mid-burst flushes can close them).
  struct BurstState {
    GroupHandle group[2]{};  // [0] = non-loopback targets, [1] = loopback
    Handle chainHead{};      // locally-linked deadline chain
    Handle chainTail{};
    SimTime deadlineAt{};
  };
  // Message key for keyed transport-loss draws; kUnkeyed when the client
  // has no stream token. hop: 0 = request, 1 = response.
  std::uint64_t frameMsgKey(std::uint64_t frameId, std::uint32_t attempt,
                            std::uint32_t hop) const;
  // Closes one open group: one sendCoalesced for its members (per-message
  // accounting + keyed draws identical to member-wise send()), stamps each
  // member's requestTransmit, evicts messages the fault window dropped, and
  // schedules the single fan-out event.
  void closeBurstGroup(BurstState& burst, int which);
  // Flushes everything a synchronous mid-burst callback must observe in
  // sequential state: splices the deadline chain (arming the timer exactly
  // where sequential would) and closes both open groups, so re-entrant
  // submissions schedule their events after the burst's so-far and before
  // its remainder — the sequential interleaving.
  void flushBurst(BurstState& burst);
  // The coalesced delivery event: batches device-FIFO reservations per
  // same-target run, then runs onRequestDelivered for each member in submit
  // order (stale handles — frames that terminated while the burst was on
  // the wire — are skipped by the generation check).
  void onBurstDelivered(GroupHandle gh);

  Simulator& sim_;
  const ModelRegistry& registry_;
  SimTransport& transport_;
  Directory directory_;  // immutable after construction (read cross-shard)
  Config config_;
  ShardRouter* router_ = nullptr;
  unsigned myShard_ = 0;  // shard owning clientNode_ (== this client's sim_)
  bool sharded_ = false;  // router present with >1 shard: remote path armed
  NodeId clientNode_{};  // interned once; every frame's transport endpoint
  ModelId model_{};      // interned once; every frame's invoke argument
  LbService lb_;
  AdmissionLedger admission_;
  // Per-frame charge in milli execution/deadline units, fixed per client
  // (one model + one deadline): inferenceEstimate * 1000 / frameDeadline,
  // floored at 1. Zero when admission is off or no deadline is configured.
  std::uint32_t admissionEstimateMilli_ = 0;
  ContextPool pool_;
  GroupPool groupPool_;
  // Burst scratch, capacity retained across bursts. burstScratch_ holds the
  // acquired slab run; nested (re-entrant) bursts append behind the caller's
  // range and truncate back on exit, so each burst indexes only its own
  // [base, base+k) slice. The lat/drop buffers are used only inside
  // closeBurstGroup, which runs no user code — safe across re-entrancy.
  std::vector<Handle> burstScratch_;
  std::vector<std::uint64_t> keyScratch_;
  std::vector<SimDuration> latScratch_;
  std::vector<std::uint8_t> dropScratch_;
  // Deadline queue state: head/tail of the intrusive FIFO plus the single
  // armed timer (invalid while the queue is empty or a sweep is running).
  Handle dlHead_{};
  Handle dlTail_{};
  EventId dlTimer_{};
  bool dlSweeping_ = false;
  std::function<void(TpuClient*)> onDestroy_;
  bool stopped_ = false;
  std::uint64_t nextFrameId_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failovers_ = 0;
  std::array<std::uint64_t, kFrameOutcomeCount> outcomes_{};
};

}  // namespace microedge
