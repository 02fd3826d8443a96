#pragma once

// Discrete-event simulation engine.
//
// This is the substrate on which the MicroEdge cluster is reproduced: TPU
// devices, network links, camera frame sources and the reclamation poller
// are all event-driven actors scheduling callbacks on one Simulator.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonic sequence number breaks ties), so a seeded experiment always
// produces identical results.
//
// Engine layout (the perf-critical part): events live in a slot arena
// (`slots_`) recycled through a free list, and an indexed 4-ary min-heap
// (`heap_`) orders them by (when, seq). Heap entries carry their sort key
// inline, so sift comparisons walk contiguous 24-byte records instead of
// chasing slot pointers; the slot is only touched to maintain its heap
// position (a blind store) and when the event actually fires or is
// cancelled. Each slot knows its heap position, so cancel() is a true
// O(log n) in-place removal — no tombstones, no unbounded cancelled-set
// growth. Callbacks are EventFn (small-buffer-optimized, move-only): firing
// an event moves the callback out of its slot instead of copying a
// std::function, which is heap-free for every inline-sized closure the
// actors use. A 4-ary heap halves the levels of a binary heap and keeps the
// four children of a node adjacent in memory, which wins at the 10k-1M
// pending depths the figure reproductions reach.
//
// Delay lanes (DESIGN.md §6): almost every event is scheduled a fixed delay
// after the event that schedules it — a camera tick at its period, a hop at
// its link latency, a completion at its service time — and events pushed
// with one delay arrive in (when, seq) order, because now() never goes back
// and seqs only grow. So a FIFO already holds them sorted. A push whose
// delay (when − now) matches a busy lane's is appended to that lane; only
// each lane's oldest member, its head, sits in the heap. When the head
// fires or is cancelled, the lane's next member takes the head's heap
// position with one sift-down instead of a pop plus a push. Lanes own no
// storage: a member's slot link (the free-list link while the slot is free)
// names the next member, its position index names the previous one, and
// slotWhen_ holds its timestamp, so a cancel unlinks a follower in O(1). A
// push whose delay finds no free lane, or that would not land after the
// lane's last member (a re-arm whose callback already scheduled the same
// delay), goes to the heap as it would without lanes. The global fire order
// is therefore unchanged. Lanes also keep long-lived timers (deadline
// timers, 1 s camera ticks) from deepening the heap: thousands of pending
// ticks with one period sit behind one entry, so distant events need no
// heap of their own.
//
// Emitter taint (for the sharded sim's adaptive window bound, DESIGN.md
// §12): an event may be tagged as an *emitter* — one whose callback might,
// transitively, send a cross-shard message. The taint is closed under
// scheduling: any event scheduled (or re-armed) from inside an emitter's
// callback is an emitter too, so callers only tag the ROOTS of potentially
// cross-shard cascades (cross-rack camera ticks, fault-plan events, drained
// mailbox deliveries) and the engine propagates the bit through arbitrarily
// deep event chains. nextEmitterTime() reports the earliest pending emitter
// in the heap and every lane — the shard's earliest-cross-shard-send
// bound (ECSB) — via a lazy side min-heap: tagged schedules push an entry,
// fired/cancelled entries are detected by seq mismatch and purged only when
// they surface at the top. The side heap is maintained only under setEmitterTracking(true)
// (the sharded adaptive mode); otherwise the bit still propagates (one bool
// per slot) but costs nothing and nextEmitterTime() degrades to the always-
// sound nextEventTime().

#include <array>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/event_fn.hpp"
#include "util/time.hpp"

namespace microedge {

// Handle to a scheduled event; lets the owner cancel it before it fires.
// Carries the slot index alongside the unique sequence number so cancel()
// finds the event without a lookup table; a stale handle (already fired,
// cancelled, or recycled slot) fails the seq comparison and is a no-op.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0xffffffffu;
  bool valid() const { return seq != 0; }
  friend bool operator==(EventId a, EventId b) { return a.seq == b.seq; }
};

class Simulator {
 public:
  using Callback = EventFn;

  Simulator() { laneDelay_.fill(kFreeLane); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `when` (must be >= now()).
  // `emitter` tags the event as a cross-shard-emitting root (see header);
  // events scheduled from inside an emitter's callback inherit the tag
  // regardless of the argument.
  EventId schedule(SimTime when, Callback fn, bool emitter = false);
  // Schedules `fn` after `delay` (clamped to >= 0).
  EventId scheduleAfter(SimDuration delay, Callback fn, bool emitter = false);
  // Re-arms the callback that is currently firing: callable only from inside
  // an event callback, it re-schedules that same callback `delay` from now
  // by re-using its event slot — no new closure is constructed and nothing
  // is allocated. The returned id cancels the re-armed occurrence. Calling
  // it more than once in a single callback keeps only the last re-arm. This
  // is how PeriodicTask ticks without per-period allocation.
  EventId rearmCurrentAfter(SimDuration delay);
  // Cancels a pending event. Cancelling an already-fired or invalid id is a
  // no-op (lifecycle races are normal: a pod may die while its next frame
  // event is in flight).
  void cancel(EventId id);
  // Retroactively tags a pending event as an emitter (see header). For
  // deferred-work structures whose wakeup event was scheduled before the
  // cross-shard work arrived — e.g. a device FIFO whose in-flight
  // completion was scheduled untagged and now has an emitter job queued
  // behind it: tainting the wakeup keeps the chain visible to the adaptive
  // bound (its cascade then starts the queued job tagged by inheritance).
  // The event may be a heap entry or a lane follower; the side index takes
  // its timestamp from the heap entry or from slotWhen_. Stale / fired /
  // already-tagged ids are a no-op.
  void taintEvent(EventId id);

  // Runs until the event queue drains. Returns the number of events fired.
  std::size_t run();
  // Fires all events with timestamp <= deadline, then advances now() to
  // deadline. Events scheduled beyond the deadline remain pending.
  std::size_t runUntil(SimTime deadline);
  std::size_t runFor(SimDuration horizon) { return runUntil(now_ + horizon); }
  // Fires exactly the next event (if any). Returns false when queue is empty.
  bool step();

  // Timestamp of the earliest pending event, SimTime::max() when idle. The
  // sharded window loop uses this to compute the next conservative bound.
  SimTime nextEventTime() const {
    return heap_.empty() ? SimTime::max() : heap_[0].when;
  }
  // Earliest pending *emitter* event, SimTime::max() when
  // none — the shard's ECSB under the adaptive window bound. Purges stale
  // side-heap entries lazily, hence non-const; callable only between events
  // (the sharded barrier): a call from inside a firing callback aborts, in
  // every build. Without emitter tracking this conservatively degrades to
  // nextEventTime().
  SimTime nextEmitterTime();
  // Enables the emitter side-heap. Must be flipped while no events are
  // pending (already-scheduled emitters would be invisible to the index and
  // the adaptive bound would be unsound), or the call aborts, in every
  // build; the ShardedSim constructor does it before any actor schedules.
  void setEmitterTracking(bool on);
  // True while the currently-firing callback is an emitter: actors that
  // carry work across cascades through their own state (the TPU device
  // FIFO) capture this at enqueue time and re-assert it on the event that
  // resumes the work.
  bool firingEmitter() const { return firingSlot_ != kNpos && firingEmitter_; }
  // Window execution for the sharded simulation: fires every event with
  // timestamp strictly < `bound`, then advances now() to `advanceTo`
  // (callers pass now() <= advanceTo <= bound, or the call aborts; events
  // at exactly `bound` stay pending so a cross-shard delivery stamped
  // `bound` can still be scheduled before them in the next window).
  // Returns events fired.
  std::size_t runBefore(SimTime bound, SimTime advanceTo);

  bool empty() const { return pendingCount() == 0; }
  std::size_t pendingCount() const {
    return heap_.size() + followers_ + (rearmPending_ ? 1 : 0);
  }
  std::size_t firedCount() const { return fired_; }

  // Kept only for the benchmark, which reads the pending events as two
  // columns: all of them (bar a pending re-arm), and 0.
  std::size_t nearCount() const { return heap_.size() + followers_; }
  std::size_t farCount() const { return 0; }
  // Lane introspection (sim_lane_test): pending events waiting behind a
  // lane head rather than in the heap, and the fixed number of lanes.
  std::size_t laneFollowerCount() const { return followers_; }
  static constexpr std::size_t laneCount() { return kLanes; }

  // Validates the heap ordering, the slot<->heap back-pointers, every
  // lane's order, back-links, tail and counts, and the free list. O(n);
  // intended for tests (sim_stress_test) and debugging.
  bool checkInvariants() const;

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  static constexpr std::uint8_t kNoLane = 0xff;  // Slot::lane of a non-member

  struct Slot {
    std::uint64_t seq = 0;  // 0 while on the free list
    // The next free slot while free; the lane's next member while the slot
    // is a lane member (kNpos at the tail); kNpos otherwise.
    std::uint32_t link = kNpos;
    std::uint8_t lane = kNoLane;  // the lane this event waits in, if any
    bool emitter = false;  // may transitively send cross-shard (see header)
    EventFn fn;
  };

  // Heap record: sort key plus the owning slot, packed into 16 bytes so a
  // node's four children span exactly one 64-byte cache line worth of data
  // and sift comparisons stream through contiguous memory. The tiebreak
  // word holds (seq << kSlotBits) | slot; seqs are unique, so comparing the
  // packed word ties out identically to comparing seqs, and the slot rides
  // along for free. 40 bits of seq (~10^12 events per run) and 24 bits of
  // slot (~16M simultaneously pending events) bound a single simulation;
  // acquireSlot() checks the slot bound in every build.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = (1u << kSlotBits) - 1;
  struct HeapEntry {
    SimTime when{};
    std::uint64_t seqSlot = 0;
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seqSlot) & kMaxSlots;
    }
  };
  static HeapEntry makeEntry(SimTime when, std::uint64_t seq,
                             std::uint32_t slot) {
    assert(seq < (1ull << (64 - kSlotBits)) && "event seq space exhausted");
    assert(slot <= kMaxSlots && "pending-event slot space exhausted");
    return HeapEntry{when, (seq << kSlotBits) | slot};
  }
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seqSlot < b.seqSlot;
  }

  // Tag bit in slotPos_: the slot is a lane follower, and the low bits name
  // the previous member of its lane (the head, for the first follower).
  // Heap positions and slot indexes stay below 2^24, so the tag never
  // collides with them. kNpos (all ones) is checked first wherever
  // positions are read.
  static constexpr std::uint32_t kLaneBit = 0x80000000u;

  // Number of delay lanes. A lane is bound to one delay while it holds
  // events and freed when its last member leaves; a delay that finds every
  // lane busy goes to the heap. 8, 16 and 32 lanes ran the perfbench
  // workloads equally fast; a sampled flash crowd had seven lanes bound.
  static constexpr std::uint32_t kLanes = 16;
  // laneDelay_ value of a free lane; real delays are >= 0.
  static constexpr SimDuration kFreeLane = SimDuration{-1};
  struct Lane {
    std::uint32_t tail = kNpos;  // last member's slot
    std::uint64_t tailSeq = 0;   // and its (when, seq) key
    SimTime tailWhen{};
  };

  bool fireNext();
  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t si);
  // Queues slot `si` at (when, seq): appended to the lane of its delay,
  // made the head of a free lane, or pushed on the heap as a plain entry.
  void push(std::uint32_t si, SimTime when, std::uint64_t seq);
  // Hands heap position `pos`, held by lane head `si`, to the lane's next
  // member with one sift-down. Returns false, after freeing a drained lane
  // or if `si` is not a lane head, when the caller must remove the entry.
  bool promoteFollower(std::uint32_t pos, std::uint32_t si);
  void unlinkFollower(std::uint32_t si);
  // Places `e` at heap position `pos` and bubbles it toward the root / the
  // leaves, maintaining the slots' heap-position back-pointers.
  void siftUp(std::uint32_t pos, HeapEntry e);
  void siftDown(std::uint32_t pos, HeapEntry e);
  void heapRemoveAt(std::uint32_t pos);
  void popRoot();

  SimTime now_ = kSimEpoch;
  std::uint64_t nextSeq_ = 1;
  std::size_t fired_ = 0;

  std::vector<Slot> slots_;
  // Heap position of each slot's event, or its tagged lane back-link
  // (kNpos while free or firing), kept outside Slot so the sift
  // back-pointer stores land in a dense 4-byte array instead of dirtying
  // one cache line per 80-byte slot.
  std::vector<std::uint32_t> slotPos_;
  // Timestamp of each lane member (head or follower); stale otherwise.
  std::vector<SimTime> slotWhen_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap: lane heads and the rest
  std::uint32_t freeHead_ = kNpos;

  // Lane i is bound to delay laneDelay_[i] (kFreeLane while it holds no
  // event); the delays sit apart from the tails so the lookup on every push
  // scans one contiguous 128-byte array.
  std::array<SimDuration, kLanes> laneDelay_;
  std::array<Lane, kLanes> lanes_{};
  std::size_t followers_ = 0;  // lane members behind their lane's head

  // State of the callback currently executing inside fireNext(). The fired
  // slot stays reserved (off the heap and the free list) for the duration of
  // the call so rearmCurrentAfter() can re-use it.
  std::uint32_t firingSlot_ = kNpos;
  bool firingEmitter_ = false;
  bool rearmPending_ = false;
  SimTime rearmWhen_{};
  std::uint64_t rearmSeq_ = 0;

  // Emitter side-index: a plain std::push_heap/pop_heap min-heap over
  // (when, seq). Entries are never removed eagerly — an entry is live iff
  // its slot still holds the same seq (seqs are globally unique, so the
  // check is exact) — and stale tops are purged lazily by
  // nextEmitterTime(). Amortized O(log n) per tagged schedule.
  struct EmitterEntry {
    SimTime when{};
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  static bool emitterAfter(const EmitterEntry& a, const EmitterEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
  void emitterPush(SimTime when, std::uint64_t seq, std::uint32_t slot);

  bool trackEmitters_ = false;
  std::vector<EmitterEntry> emitters_;
};

// Fires a callback every `period` starting at `start` until stopped or the
// owner is destroyed. Used for camera frame generation, the reclamation
// poller and utilization sampling. The tick closure is constructed once at
// start; each period re-arms the same event slot (no per-period allocation).
// An `emitter` task tags every tick as a cross-shard-emitting root (the
// first tick explicitly, the re-arms by taint inheritance): this is how a
// cross-rack camera stream keeps the adaptive window bound honest.
//
// The callback's inline buffer holds 16 bytes, the most any production tick
// captures (an owner pointer and one more): a city runs one task per camera
// stream, so every byte of it is per-stream memory. A larger capture costs
// one heap block when the task is built, never one per tick.
class PeriodicTask {
 public:
  using Callback = MoveFn<void(), 16>;

  PeriodicTask(Simulator& sim, SimDuration period, Callback fn,
               bool emitter = false)
      : sim_(sim), period_(period), fn_(std::move(fn)), emitter_(emitter) {}
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start() { startAt(sim_.now() + period_); }
  void startAt(SimTime first);
  void stop();
  bool running() const { return running_; }
  SimDuration period() const { return period_; }
  // Changes the interval; takes effect when the currently-armed firing
  // re-arms (fire() reads period_ fresh), so adjusting from inside the
  // callback — the degradation controller's use — is deterministic and
  // never cancels/reschedules the in-flight event.
  void setPeriod(SimDuration period) { period_ = period; }

 private:
  void fire();

  Simulator& sim_;
  SimDuration period_;
  Callback fn_;
  EventId next_{};
  bool running_ = false;
  bool emitter_ = false;
};

}  // namespace microedge
