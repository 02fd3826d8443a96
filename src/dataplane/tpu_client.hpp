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
// in steady state, on one shard or across shards. Frame state lives in a
// slab pool of InvokeContext slots addressed by generation-checked handles;
// client-side stages re-resolve the slot on entry, so a dropped frame's
// stale events are rejected instead of dereferencing recycled state.
// Routing, transport and the TPU Service all speak dense interned handles
// (TpuId / NodeId / ModelId); the client interns its node and model once at
// construction, and each stage looks the model's constants (bytes each way,
// inference estimate, postprocess) up by ModelId in the registry. The frame
// takes three simulator events end to end on one shard (arrival at the
// service, device completion, client completion) — preprocess rides the
// request hop and postprocess the response hop, with identical timestamps
// to the five-event formulation.
//
// One pipeline, wherever the target lives:
//
//   ship -> onArrival -> device -> onDeviceDone -> onResponse
//   ship -> onArrival -> nack -> onNack          (dead target, shed, reject)
//
// A client is bound to its node's shard: its Simulator& is that shard's
// event loop, and invoke(), ship, onResponse and onNack run there. ship
// models the request hop on that shard's transport lane and posts a Hop
// envelope (client, slot handle, target, service node, deadline,
// response-hop loss key: 40 bytes, stored inline in the event slot) through
// ShardedSim::postToShard at exactly now + preprocess (none on a failover
// re-ship) + transfer latency. On the client's own shard that is a plain
// schedule; across shards, a mailbox append. onArrival, onDeviceDone
// and nack run on the service's shard and read only the envelope, client
// fields fixed at construction, and service-shard state — except in the two
// stages that test for the client's shard:
//   - nack: on the client's shard the NACK calls onNack in the arrival
//     event itself, with no added event or latency; across shards it rides
//     a control message back max(controlLatency, lookahead) later. NACKs
//     are zero-byte control piggybacks and are not counted in the
//     transport's message counters.
//   - onDeviceDone: on the client's shard a frame that is already terminal
//     sends nothing, and a live frame gets its queue delay, inference,
//     postprocess and response-transmit times written into its slot at
//     device completion, so it keeps them if it then times out or loses its
//     response. Across shards they ride the response to onResponse.
// So a cross-shard frame differs from a same-shard one in three ways: its
// NACK arrives one control latency later, it reports zero device stats if
// it times out after its device finished, and it still sends its response
// if it became terminal while on the device. The differential suite keeps
// deadline-carrying streams rack-local so these paths never occur
// cross-shard (DESIGN.md §12).
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

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

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
    // draws: whether a frame drops under a loss window is a pure function of
    // (fault seed, token, frame id, attempt, hop) — invariant to shard count
    // and to every other stream's traffic. DataPlane::makeClient, the only
    // place a client is built, assigns a nonzero token when left at zero.
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

  // The client runs on the event loop of its node's shard in `sharded`;
  // its frames reach services on any shard.
  TpuClient(ShardedSim& sharded, const ModelRegistry& registry,
            SimTransport& transport, Directory directory, Config config);
  ~TpuClient();

  // Seeds the embedded LB Service with the weights the control plane
  // admitted (pod initialization, §3.1 step 4) or replanned, and, with
  // admission enabled, rebuilds the ledger's capacity line from them (share
  // milli-units).
  Status configureLb(const LbConfig& config);
  bool ready() const { return lb_.configured() && !stopped_; }

  // Submits one frame through the full pipeline. `done` fires once the
  // frame reaches its terminal outcome (kCompleted after post-processing;
  // other outcomes possibly synchronously, e.g. no live target at submit).
  Status invoke(CompletionCallback done);

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
  // All client-side per-frame state (breakdown, deadline links, ledger
  // charge, completion) lives in one recycled pool slot, so no string or
  // heap allocation recurs per frame. The model's constants are not copied
  // here: every stage looks them up by ModelId.
  // InvokeContext holds handles to its own pool's slots, so the handle type
  // is named before the context is complete.
  struct InvokeContext;
  using ContextPool = SlabPool<InvokeContext>;
  using Handle = SlabHandle;

  struct InvokeContext {
    FrameBreakdown breakdown{};
    NodeId serviceNode{};
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

  // Why an arrival failed; resolved on the client's shard by onNack.
  enum class Nack : std::uint8_t { kDeadTarget, kShed, kRejected };

  // The envelope the service-side stages run on. The slot it names is
  // client-shard state (it may be recycled concurrently on another shard),
  // so everything those stages need from the frame is copied in at ship().
  struct Hop {
    TpuClient* client = nullptr;
    Handle h{};
    TpuId target{};
    NodeId serviceNode{};
    SimTime deadlineAt{};  // SimTime::max() when the frame has no deadline
    // Keyed-loss key of the response hop, derived on the client's shard
    // from its stream token.
    std::uint64_t respKey = 0;
  };
  // Closures capturing a Hop stay inline in their event slot and device
  // FIFO entry: no stage allocates, same shard or cross shard.
  static_assert(sizeof(Hop) <= EventFn::kInlineSize &&
                    sizeof(Hop) <= TpuDevice::InvokeCallback::kInlineSize,
                "Hop must fit inline in EventFn and InvokeCallback");

  // The model's constants (registered before the first invoke, never
  // dropped by the registry).
  const ModelInfo& modelInfo() const { return *registry_.byId(model_); }
  // Service-side stages run on the service's shard; true when that is also
  // the client's.
  bool onClientShard() const {
    return ShardedSim::currentShard() == myShard_;
  }

  // Client shard: models the request hop and posts the arrival to the
  // service's shard at now + departAfter + transfer latency.
  void ship(Handle h, InvokeContext* c, SimDuration departAfter);
  // Service shard (static: only the envelope, construction-time client
  // fields and service-shard state may be touched, bar the two same-shard
  // exceptions in the header comment).
  static void onArrival(const Hop& hop);
  static void onDeviceDone(const Hop& hop, const TpuDevice::InvokeStats& stats);
  static void nack(const Hop& hop, Nack kind);
  // Client shard: the response hop landed after postprocess.
  void onResponse(Handle h, SimDuration queueDelay, SimDuration serviceTime,
                  SimDuration responseTransmit);
  void onNack(Handle h, Nack kind);

  // Draws healthy targets from the LB until one resolves to a live service
  // (each dead draw feeds the breaker). Returns nullptr when none does.
  TpuService* routeToLiveTarget(std::size_t* index);
  // Moves the frame to a fresh slot and re-ships it to the next healthy
  // target. Returns false (context untouched) when the failover budget is
  // spent or no live target remains; on true the old handle is dead.
  bool tryFailover(Handle h, InvokeContext* c);
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

  // Message key for keyed transport-loss draws. hop: 0 = request,
  // 1 = response.
  std::uint64_t frameMsgKey(std::uint64_t frameId, std::uint32_t attempt,
                            std::uint32_t hop) const;

  Simulator& sim_;
  const ModelRegistry& registry_;
  SimTransport& transport_;
  Directory directory_;  // immutable after construction (read cross-shard)
  Config config_;
  ShardedSim& sharded_;
  unsigned myShard_ = 0;  // shard owning clientNode_ (== this client's sim_)
  NodeId clientNode_{};  // interned once; every frame's transport endpoint
  ModelId model_{};      // interned once; every frame's invoke argument
  LbService lb_;
  AdmissionLedger admission_;
  // Per-frame charge in milli execution/deadline units, fixed per client
  // (one model + one deadline): inferenceEstimate * 1000 / frameDeadline,
  // floored at 1. Zero when admission is off or no deadline is configured.
  std::uint32_t admissionEstimateMilli_ = 0;
  ContextPool pool_;
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
