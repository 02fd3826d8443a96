#pragma once

// Sharded parallel simulation with conservative lookahead.
//
// One Simulator event loop serializes every frame of a simulated cluster;
// city-scale topologies (10k nodes, 100k streams) are therefore capped by a
// single core. This layer partitions the cluster by rack into per-shard
// Simulator instances and advances them in parallel under the classic
// synchronous conservative-lookahead discipline, one window at a time:
//
//   window bound  B = min over shards of nextEmitterTime() + lookahead
//
// where lookahead is the NetworkModel's base inter-node latency. Every
// cross-shard interaction in the system — a frame hop, a weight push, a
// failure-detection notice — rides a network message whose modelled latency
// is >= that base latency (loopback's cheaper latency applies only to
// same-node = same-rack = same-shard traffic), so an event firing at t < B
// can only affect another shard at t + lookahead >= B. Each shard may thus
// fire everything strictly before B without ever seeing a message from its
// past ("the mailbox delivery-time invariant": every message drained at the
// window barrier is stamped deliverAt >= B). postToShard checks the
// invariant on every cross-shard send, in every build, and aborts on a
// violation.
//
// nextEmitterTime() is the shard's earliest-cross-shard-send bound (ECSB):
// its earliest pending emitter-tagged event, across both heap tiers — the
// earliest event whose cascade can send cross-shard. Drained mailbox
// deliveries are scheduled emitter-tagged, so a chain of hops stays visible.
// Soundness: every cross-shard send happens inside an emitter cascade, and
// (by taint induction — roots tagged at schedule time, the engine closes
// the tag under scheduling) every emitter event fired inside the window has
// timestamp t >= min ECSB, so its sends deliver at t + lookahead >= B. A
// shard whose racks host no cross-shard traffic publishes +infinity and
// stops throttling everyone else; a pure rack-local cluster jumps to the
// stop time in ONE window.
//
// WindowBound only decides whether emitter tracking is on. kAdaptive turns
// it on; kFixed leaves it off, where nextEmitterTime() is nextEventTime()
// and every event counts as a sender, so the same formula yields the
// classic min(nextEventTime) + lookahead bound. Fire traces are
// byte-identical in both modes: window partitioning never reorders events,
// it only chooses how many fire between barriers (DESIGN.md §12 has the
// full argument). kFixed stays the default — raw ShardedSim users that post
// untagged cross-shard sends (unit tests) rely on it.
//
// Cross-shard traffic travels through bounded per-(src,dst) SPSC mailboxes:
// the source shard appends during the parallel phase (it is the only
// writer), and the barrier leader alone drains them during the serial phase
// — the barrier's mutex is the only synchronization the mailboxes need.
// Drained messages are merged in (deliverAt, sentAt, srcShard, srcSeq)
// order before being scheduled, so the schedule-sequence numbers the
// destination sims assign — and therefore equal-timestamp tie-breaking —
// are a pure function of simulation state, independent of thread timing.
//
// ShardedSim is the only router. One shard is the solo path (Testbed, the
// solo benches, the test fixtures), bit for bit the plain engine: run() is
// the Simulator::runUntil() loop, postToShard a plain schedule, and no
// mailbox, barrier or worker thread exists. Workloads whose cross-shard
// event timestamps are distinct (the differential suite staggers camera
// phases to guarantee this) produce identical per-frame timings at every
// shard count.
//
// Each run() starts one plain std::thread per shard and joins them at the
// deadline; every worker adopts the launching thread's InternDomain so
// dense handles resolve on every shard.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "util/event_fn.hpp"
#include "util/intern.hpp"
#include "util/time.hpp"

namespace microedge {

class ShardedSim {
 public:
  // Mailbox capacity per (src,dst) pair and window: a shard that emits more
  // cross-shard messages than this inside one lookahead window is a
  // modelling bug (the window is half a millisecond of simulated time).
  // postToShard aborts on overflow in every build.
  static constexpr std::size_t kMailboxCapacity = 1u << 20;

  // Whether the shards track emitters for the window bound (see header).
  // kAdaptive requires every cross-shard-emitting cascade root to be
  // emitter-tagged (the city-slice harness does this; raw users that post
  // untagged cross-shard sends must stay on kFixed, which counts every
  // event as a sender).
  enum class WindowBound { kFixed, kAdaptive };

  ShardedSim(unsigned shards, SimDuration lookahead,
             WindowBound bound = WindowBound::kFixed);

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  // --- Routing (DataPlane, SimTransport, TpuClient, FaultInjector) -------
  unsigned shardCount() const { return static_cast<unsigned>(sims_.size()); }
  unsigned shardOfNode(NodeId node) const { return map_.shardOf(node); }
  Simulator& shardSim(unsigned shard) { return *sims_[shard]; }
  // The conservative window: minimum modelled latency of any cross-shard
  // interaction (the NetworkModel base inter-node latency).
  SimDuration lookahead() const { return lookahead_; }
  // Schedules `fn` at absolute time `deliverAt` on `shard`. Same-shard (or
  // while the run loop is not executing, e.g. fault-plan arming at setup)
  // this is a direct schedule; cross-shard during a run it is a mailbox
  // append, and `deliverAt` must be >= the sending shard's now() +
  // lookahead(). `emitter` tags a direct schedule as a cross-shard-emitting
  // root (see Simulator::schedule); pass true when arming events whose
  // cascades may send cross-shard (fault plans, control pushes) so the
  // adaptive window bound stays sound.
  void postToShard(unsigned shard, SimTime deliverAt, EventFn fn,
                   bool emitter = false);
  // Shard whose event loop the calling thread is currently executing
  // (thread-local; 0 on non-worker threads, i.e. setup and one-shard runs).
  static unsigned currentShard();
  Simulator& currentSim() { return shardSim(currentShard()); }

  // Node->shard assignment (setup phase; see ShardMap for the rack rules).
  ShardMap& shardMap() { return map_; }
  const ShardMap& shardMap() const { return map_; }

  // --- Execution ------------------------------------------------------------
  // Advances every shard to `deadline` (events at exactly `deadline`
  // included), interleaving them window by window. Single-shard maps run
  // the canonical Simulator::runUntil path. Returns total events fired.
  // One run at a time (one started inside a run aborts, in every build);
  // callable repeatedly with increasing deadlines.
  std::size_t run(SimTime deadline);
  std::size_t runFor(SimDuration horizon) { return run(now() + horizon); }

  bool running() const { return running_; }  // inside run(), any shard count
  // All shards agree on now() outside run() (they are advanced to the
  // deadline together); shard 0 is the witness.
  SimTime now() const { return sims_[0]->now(); }

  // --- Telemetry ------------------------------------------------------------
  std::size_t windowCount() const { return windows_; }
  std::size_t crossShardMessages() const { return crossMessages_; }
  // Always 0; kept only for the benchmark, which reads it.
  std::size_t reliefWindowCount() const { return 0; }
  // Windows where the adaptive ECSB bound was strictly wider than the fixed
  // formula would have allowed (subset of windowCount(); 0 under kFixed).
  std::size_t adaptiveWindowCount() const { return adaptiveWindows_; }
  // Events fired per window, power-of-two buckets: [0], [1], [2,3], [4,7],
  // ... — bucket i holds windows that fired in [2^(i-1), 2^i - 1] events,
  // the last bucket everything beyond. The "is this run barrier-bound?"
  // histogram; deterministic for a given (workload, shard count).
  static constexpr std::size_t kWindowHistBuckets = 16;
  const std::array<std::uint64_t, kWindowHistBuckets>& eventsPerWindowHist()
      const {
    return windowHist_;
  }
  // Sum over windows of the events the window's busiest shard fired. Over
  // the events fired in windows, it reads 1/shards when every window's work
  // is spread evenly and 1 when each window holds one shard's work.
  // Deterministic for a given (workload, shard count, window bound).
  std::uint64_t busiestShardEvents() const { return busiestEvents_; }
  // Wall-clock nanoseconds each shard's worker spent blocked at the barrier
  // across all run() calls. Wall time, NOT deterministic — keep it out of
  // byte-compared dumps.
  const std::vector<std::uint64_t>& shardStallNanos() const {
    return stallNanos_;
  }
  std::size_t pendingCount() const;

 private:
  struct MailMsg {
    SimTime deliverAt{};
    SimTime sentAt{};
    std::uint64_t srcSeq = 0;
    EventFn fn;
  };
  struct Drained {
    MailMsg msg;
    unsigned src;
    unsigned dst;
  };
  // SPSC by construction: the source shard's worker appends during the
  // parallel phase; the barrier leader drains during the serial phase. The
  // barrier's mutex orders the two, so no atomics are needed.
  struct Mailbox {
    std::vector<MailMsg> msgs;
    std::uint64_t nextSeq = 0;
  };

  void workerLoop(unsigned shard, SimTime deadline);
  // Serial phase, run by the barrier leader with every worker parked:
  // drains all mailboxes into the destination sims (deterministic merge
  // order), then computes the next window bound.
  void serialPhase(SimTime deadline);
  // Adds the closed window's event count to the events-per-window histogram
  // and its busiest shard's count to busiestShardEvents().
  void recordWindowEvents();
  Mailbox& mailbox(unsigned src, unsigned dst) {
    return mail_[src * sims_.size() + dst];
  }

  ShardMap map_;
  SimDuration lookahead_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<Mailbox> mail_;
  std::vector<Drained> drainScratch_;  // reused across serial phases
  InternDomain* domain_ = nullptr;  // adopted by workers for the run
  bool running_ = false;

  // Window state, written by the barrier leader in the serial phase and
  // read by every worker after the barrier releases (the barrier mutex
  // provides the happens-before edge).
  std::mutex barrierMu_;
  std::condition_variable barrierCv_;
  unsigned arrived_ = 0;
  std::uint64_t barrierEpoch_ = 0;
  SimTime windowBound_{};
  SimTime windowAdvanceTo_{};
  bool done_ = false;

  std::size_t windows_ = 0;
  std::size_t crossMessages_ = 0;
  std::size_t adaptiveWindows_ = 0;
  std::array<std::uint64_t, kWindowHistBuckets> windowHist_{};
  std::uint64_t busiestEvents_ = 0;
  bool histPrimed_ = false;  // reset per run(); see recordWindowEvents()

  // Per-shard, own-worker-writes-only counters, read by the leader under
  // the barrier mutex or after run() returns. shardWindowFired_[s]: events
  // shard s fired in the window that just closed. stallNanos_[s]:
  // cumulative wall-clock barrier wait.
  std::vector<std::uint64_t> shardWindowFired_;
  std::vector<std::uint64_t> stallNanos_;
};

}  // namespace microedge
