#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace microedge {

namespace {

long long ns(SimTime t) {
  return static_cast<long long>(t.time_since_epoch().count());
}

}  // namespace

EventId Simulator::schedule(SimTime when, Callback fn, bool emitter) {
  assert(fn && "scheduling empty callback");
  if (when < now_) when = now_;
  const std::uint32_t si = acquireSlot();
  const std::uint64_t seq = nextSeq_++;
  Slot& s = slots_[si];
  s.seq = seq;
  // Taint closure: anything an emitter's callback schedules is an emitter.
  s.emitter = emitter || (firingSlot_ != kNpos && firingEmitter_);
  s.fn = std::move(fn);
  push(si, when, seq);
  if (s.emitter) emitterPush(when, seq, si);
  return EventId{seq, si};
}

EventId Simulator::scheduleAfter(SimDuration delay, Callback fn,
                                 bool emitter) {
  if (delay < SimDuration::zero()) delay = SimDuration::zero();
  return schedule(now_ + delay, std::move(fn), emitter);
}

EventId Simulator::rearmCurrentAfter(SimDuration delay) {
  // Checked in every build: outside a callback there is no slot to re-use.
  if (firingSlot_ == kNpos) {
    std::fprintf(stderr,
                 "Simulator::rearmCurrentAfter: called outside a firing "
                 "callback (now=%lld ns, delay=%lld ns)\n",
                 ns(now_), static_cast<long long>(delay.count()));
    std::abort();
  }
  if (delay < SimDuration::zero()) delay = SimDuration::zero();
  rearmPending_ = true;
  rearmWhen_ = now_ + delay;
  rearmSeq_ = nextSeq_++;
  return EventId{rearmSeq_, firingSlot_};
}

void Simulator::cancel(EventId id) {
  if (!id.valid()) return;
  // A pending re-arm lives outside the heaps until its callback returns.
  if (rearmPending_ && id.slot == firingSlot_ && id.seq == rearmSeq_) {
    rearmPending_ = false;
    return;
  }
  if (id.slot >= slots_.size()) return;
  // Stale handle: slot recycled (seq mismatch) or event already fired /
  // cancelled (off-heap). Either way a no-op — nothing leaks.
  const std::uint32_t pos = slotPos_[id.slot];
  if (slots_[id.slot].seq != id.seq || pos == kNpos) return;
  if (pos & kLaneBit) {
    unlinkFollower(id.slot);
  } else {
    std::vector<HeapEntry>& h = (pos & kFarBit) ? far_ : heap_;
    const std::uint32_t tag = pos & kFarBit;
    if (!promoteFollower(h, tag, pos & ~kFarBit, id.slot)) {
      heapRemoveAt(h, tag, pos & ~kFarBit);
    }
  }
  releaseSlot(id.slot);
}

void Simulator::taintEvent(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.seq != id.seq || s.emitter) return;  // stale or already tagged
  s.emitter = true;
  if (id.slot == firingSlot_) {
    // Tainted mid-fire: children scheduled from here on inherit.
    firingEmitter_ = true;
    return;
  }
  const std::uint32_t pos = slotPos_[id.slot];
  if (pos == kNpos) return;
  if (pos & kLaneBit) {
    emitterPush(slotWhen_[id.slot], s.seq, id.slot);
    return;
  }
  const std::vector<HeapEntry>& h = (pos & kFarBit) ? far_ : heap_;
  emitterPush(h[pos & ~kFarBit].when, s.seq, id.slot);
}

void Simulator::setEmitterTracking(bool on) {
  // Checked in every build: emitters already pending would be invisible to
  // the side index, and the adaptive window bound would be unsound.
  if (on && pendingCount() != 0) {
    std::fprintf(stderr,
                 "Simulator::setEmitterTracking: enabled with %zu events "
                 "already pending (now=%lld ns)\n",
                 pendingCount(), ns(now_));
    std::abort();
  }
  trackEmitters_ = on;
}

// Returns the heap whose root is the globally next event under (when, seq).
// The far heap holds events that were distant when scheduled, but time
// advances: once everything nearer has fired, the far root IS the next
// event and fires from its own heap — no migration step.
const std::vector<Simulator::HeapEntry>* Simulator::nextHeap() const {
  if (far_.empty()) return heap_.empty() ? nullptr : &heap_;
  if (heap_.empty()) return &far_;
  return before(far_[0], heap_[0]) ? &far_ : &heap_;
}

void Simulator::emitterPush(SimTime when, std::uint64_t seq,
                            std::uint32_t slot) {
  if (!trackEmitters_) return;
  emitters_.push_back(EmitterEntry{when, seq, slot});
  std::push_heap(emitters_.begin(), emitters_.end(), emitterAfter);
}

SimTime Simulator::nextEmitterTime() {
  // Checked in every build: mid-callback, the firing event's own children
  // are still being scheduled, so the bound could be read too early.
  if (firingSlot_ != kNpos) {
    std::fprintf(stderr,
                 "Simulator::nextEmitterTime: called from inside a firing "
                 "callback (now=%lld ns); it is a between-events query\n",
                 ns(now_));
    std::abort();
  }
  // Without the side-index every event is conservatively an emitter —
  // sound (the bound degenerates to the fixed-window one), never stale.
  if (!trackEmitters_) return nextEventTime();
  while (!emitters_.empty()) {
    const EmitterEntry& top = emitters_.front();
    // Live iff the slot still holds this seq: fired, cancelled and recycled
    // entries all fail the comparison (seqs are never reused).
    if (top.slot < slots_.size() && slots_[top.slot].seq == top.seq) {
      return top.when;
    }
    std::pop_heap(emitters_.begin(), emitters_.end(), emitterAfter);
    emitters_.pop_back();
  }
  return SimTime::max();
}

bool Simulator::fireNext() {
  std::vector<HeapEntry>* h = nextHeap();
  if (h == nullptr) return false;
  assert(firingSlot_ == kNpos && "fireNext is not reentrant");
  const std::uint32_t si = (*h)[0].slot();
  assert((*h)[0].when >= now_);
  now_ = (*h)[0].when;
  ++fired_;
  // Move the callback out: the callback may schedule events and grow
  // `slots_`, so it must not run from arena storage.
  EventFn fn = std::move(slots_[si].fn);
  const std::uint32_t tag = h == &far_ ? kFarBit : 0;
  if (!promoteFollower(*h, tag, 0, si)) popRoot(*h, tag);
  // Keep the slot reserved (not on the free list) while the callback runs:
  // a re-arm wants it back, and cancel() of the now-stale id must not see a
  // recycled slot.
  slotPos_[si] = kNpos;
  firingSlot_ = si;
  firingEmitter_ = slots_[si].emitter;
  rearmPending_ = false;
  fn();
  if (rearmPending_) {
    rearmPending_ = false;
    // Re-fetch: the callback may have grown slots_. The re-arm inherits the
    // firing event's emitter taint (s.emitter is untouched): a tagged
    // periodic tick stays tagged for the whole life of the task.
    Slot& s = slots_[si];
    s.fn = std::move(fn);
    s.seq = rearmSeq_;
    push(si, rearmWhen_, rearmSeq_);
    if (s.emitter) emitterPush(rearmWhen_, rearmSeq_, si);
  } else {
    releaseSlot(si);
  }
  firingSlot_ = kNpos;
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (fireNext()) ++n;
  return n;
}

std::size_t Simulator::runUntil(SimTime deadline) {
  std::size_t n = 0;
  for (const std::vector<HeapEntry>* h = nextHeap();
       h != nullptr && (*h)[0].when <= deadline; h = nextHeap()) {
    fireNext();
    ++n;
  }
  if (deadline > now_) now_ = deadline;
  return n;
}

std::size_t Simulator::runBefore(SimTime bound, SimTime advanceTo) {
  // Checked in every build: a clock parked past the bound would let the
  // next window schedule before now, and one parked before now runs back.
  if (advanceTo > bound || advanceTo < now_) {
    std::fprintf(stderr,
                 "Simulator::runBefore: advanceTo=%lld ns outside [now=%lld "
                 "ns, bound=%lld ns]\n",
                 ns(advanceTo), ns(now_), ns(bound));
    std::abort();
  }
  std::size_t n = 0;
  for (const std::vector<HeapEntry>* h = nextHeap();
       h != nullptr && (*h)[0].when < bound; h = nextHeap()) {
    fireNext();
    ++n;
  }
  if (advanceTo > now_) now_ = advanceTo;
  return n;
}

bool Simulator::step() { return fireNext(); }

std::uint32_t Simulator::acquireSlot() {
  if (freeHead_ != kNpos) {
    const std::uint32_t si = freeHead_;
    freeHead_ = slots_[si].link;
    slots_[si].link = kNpos;
    return si;
  }
  // Checked in every build, where the arena grows: a slot index must fit
  // the heap entry's 24-bit slot field and stay below the position tags,
  // or heap entries and lane links would name the wrong slot silently.
  if (slots_.size() > kMaxSlots) {
    std::fprintf(stderr,
                 "Simulator: pending-event slot space exhausted (%zu slots "
                 "in use, limit %u; now=%lld ns)\n",
                 slots_.size(), kMaxSlots + 1, ns(now_));
    std::abort();
  }
  slots_.emplace_back();
  slotPos_.push_back(kNpos);
  slotWhen_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::releaseSlot(std::uint32_t si) {
  Slot& s = slots_[si];
  s.fn = EventFn();  // destroy the payload now, not at reuse time
  s.seq = 0;
  s.emitter = false;
  s.link = freeHead_;
  slotPos_[si] = kNpos;
  freeHead_ = si;
}

void Simulator::push(std::uint32_t si, SimTime when, std::uint64_t seq) {
  const SimDuration delay = when - now_;
  // One scan finds the lane bound to this delay, or else the first free one.
  std::uint32_t li = kNoLane;
  for (std::uint32_t i = 0; i < kLanes; ++i) {
    if (laneDelay_[i] == delay) {
      li = i;
      break;
    }
    if (li == kNoLane && laneDelay_[i] == kFreeLane) li = i;
  }
  if (li != kNoLane) {
    Slot& s = slots_[si];
    Lane& lane = lanes_[li];
    if (laneDelay_[li] != delay) {
      // A free lane: bind it, and the event heads it from the heap below.
      laneDelay_[li] = delay;
      lane = Lane{si, seq, when};
      s.lane = static_cast<std::uint8_t>(li);
      slotWhen_[si] = when;
    } else if (when > lane.tailWhen ||
               (when == lane.tailWhen && seq > lane.tailSeq)) {
      // Lands after the lane's last member: append, and stay off the heap.
      slots_[lane.tail].link = si;
      slotPos_[si] = kLaneBit | lane.tail;
      s.lane = static_cast<std::uint8_t>(li);
      slotWhen_[si] = when;
      lane = Lane{si, seq, when};
      ++(delay >= kFarThreshold ? farFollowers_ : nearFollowers_);
      return;
    }
    // Otherwise a re-arm whose callback already scheduled this delay with a
    // later seq: it would not land after the tail, so it goes to a heap.
  }
  // Horizon split: long-dated events (deadline timers, armed fault plans,
  // slow pollers) stay out of the near heap the hot-path events churn.
  if (delay >= kFarThreshold) {
    far_.emplace_back();
    siftUp(far_, kFarBit, static_cast<std::uint32_t>(far_.size() - 1),
           makeEntry(when, seq, si));
  } else {
    heap_.emplace_back();  // grown before siftUp so positions stay in range
    siftUp(heap_, 0, static_cast<std::uint32_t>(heap_.size() - 1),
           makeEntry(when, seq, si));
  }
}

bool Simulator::promoteFollower(std::vector<HeapEntry>& h, std::uint32_t tag,
                                std::uint32_t pos, std::uint32_t si) {
  Slot& s = slots_[si];
  const std::uint32_t li = s.lane;
  if (li == kNoLane) return false;
  s.lane = kNoLane;
  const std::uint32_t next = s.link;
  if (next == kNpos) {
    laneDelay_[li] = kFreeLane;  // drained: free for any delay
    return false;
  }
  s.link = kNpos;
  --(laneDelay_[li] >= kFarThreshold ? farFollowers_ : nearFollowers_);
  // The follower is later than the head it replaces, so it can only sink.
  siftDown(h, tag, pos, makeEntry(slotWhen_[next], slots_[next].seq, next));
  return true;
}

void Simulator::unlinkFollower(std::uint32_t si) {
  Slot& s = slots_[si];
  const std::uint32_t prev = slotPos_[si] & ~kLaneBit;
  const std::uint32_t li = s.lane;
  slots_[prev].link = s.link;
  if (s.link != kNpos) {
    slotPos_[s.link] = kLaneBit | prev;
  } else {
    lanes_[li] = Lane{prev, slots_[prev].seq, slotWhen_[prev]};
  }
  --(laneDelay_[li] >= kFarThreshold ? farFollowers_ : nearFollowers_);
  s.link = kNpos;
  s.lane = kNoLane;
}

void Simulator::siftUp(std::vector<HeapEntry>& h, std::uint32_t tag,
                       std::uint32_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::uint32_t parentPos = (pos - 1) >> 2;
    const HeapEntry& p = h[parentPos];
    if (!before(e, p)) break;
    h[pos] = p;
    slotPos_[p.slot()] = pos | tag;
    pos = parentPos;
  }
  h[pos] = e;
  slotPos_[e.slot()] = pos | tag;
}

void Simulator::siftDown(std::vector<HeapEntry>& h, std::uint32_t tag,
                         std::uint32_t pos, HeapEntry e) {
  const std::uint32_t n = static_cast<std::uint32_t>(h.size());
  for (;;) {
    const std::uint32_t first = (pos << 2) + 1;
    if (first >= n) break;
    // Overlap the next level's memory latency with this level's compares:
    // the likely descent target is one of this node's children, whose own
    // children start at (first << 2) + 1.
    const std::uint32_t grand = (first << 2) + 1;
    if (grand < n) {
      __builtin_prefetch(&h[grand]);
      __builtin_prefetch(&h[std::min(grand + 12, n - 1)]);
    }
    // The four children are adjacent; scan for the minimum.
    std::uint32_t best = first;
    const std::uint32_t end = std::min(first + 4, n);
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    if (!before(h[best], e)) break;
    h[pos] = h[best];
    slotPos_[h[pos].slot()] = pos | tag;
    pos = best;
  }
  h[pos] = e;
  slotPos_[e.slot()] = pos | tag;
}

// Bottom-up pop (Wegener): the replacement entry comes from the deepest
// layer and almost always belongs back there, so comparing it against every
// node on the way down is wasted work. Instead, walk the min-child path to a
// leaf unconditionally (3 compares per level, no data-dependent exit branch)
// and sift the replacement up from that leaf — expected O(1) correction.
void Simulator::popRoot(std::vector<HeapEntry>& h, std::uint32_t tag) {
  const HeapEntry last = h.back();
  h.pop_back();
  const std::uint32_t n = static_cast<std::uint32_t>(h.size());
  if (n == 0) return;
  std::uint32_t hole = 0;
  for (;;) {
    const std::uint32_t first = (hole << 2) + 1;
    if (first >= n) break;
    const std::uint32_t grand = (first << 2) + 1;
    if (grand < n) {
      __builtin_prefetch(&h[grand]);
      __builtin_prefetch(&h[std::min(grand + 12, n - 1)]);
    }
    std::uint32_t best = first;
    const std::uint32_t end = std::min(first + 4, n);
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    h[hole] = h[best];
    slotPos_[h[hole].slot()] = hole | tag;
    hole = best;
  }
  siftUp(h, tag, hole, last);
}

void Simulator::heapRemoveAt(std::vector<HeapEntry>& h, std::uint32_t tag,
                             std::uint32_t pos) {
  HeapEntry last = h.back();
  h.pop_back();
  if (pos < h.size()) {
    // The replacement may belong above or below the vacated position.
    if (pos > 0 && before(last, h[(pos - 1) >> 2])) {
      siftUp(h, tag, pos, last);
    } else {
      siftDown(h, tag, pos, last);
    }
  }
}

bool Simulator::checkInvariants() const {
  if (slotPos_.size() != slots_.size() || slotWhen_.size() != slots_.size()) {
    return false;
  }
  std::size_t followers[2] = {0, 0};  // near, far
  std::array<std::uint32_t, kLanes> heads{};
  // Walks lane `li` from its head `si` (in heap `tag` at `when`): members in
  // (when, seq) order, each back-link naming its predecessor, the lane's
  // tail record naming the last.
  const auto checkLane = [&](std::uint32_t li, std::uint32_t si,
                             std::uint32_t tag, SimTime when) {
    if (li >= kLanes || laneDelay_[li] == kFreeLane) return false;
    const bool far = laneDelay_[li] >= kFarThreshold;
    if (far != (tag == kFarBit) || ++heads[li] > 1) return false;
    if (slotWhen_[si] != when) return false;
    std::uint32_t prev = si;
    std::uint64_t prevSeq = slots_[si].seq;
    for (std::uint32_t f = slots_[si].link; f != kNpos; f = slots_[f].link) {
      if (f >= slots_.size() || slotPos_[f] != (kLaneBit | prev)) return false;
      const Slot& s = slots_[f];
      if (s.lane != li || s.seq == 0 || !s.fn) return false;
      if (slotWhen_[f] < when || (slotWhen_[f] == when && s.seq <= prevSeq)) {
        return false;
      }
      if (++followers[far] > slots_.size()) return false;  // cycle guard
      prev = f;
      prevSeq = s.seq;
      when = slotWhen_[f];
    }
    const Lane& lane = lanes_[li];
    return lane.tail == prev && lane.tailSeq == prevSeq &&
           lane.tailWhen == when;
  };
  const auto checkHeap = [&](const std::vector<HeapEntry>& h,
                             std::uint32_t tag) {
    for (std::uint32_t pos = 0; pos < h.size(); ++pos) {
      const HeapEntry& e = h[pos];
      const std::uint32_t si = e.slot();
      const std::uint64_t seq = e.seqSlot >> kSlotBits;
      if (si >= slots_.size()) return false;
      if (slotPos_[si] != (pos | tag)) return false;
      if (slots_[si].seq != seq || seq == 0) return false;
      if (!slots_[si].fn) return false;
      if (pos > 0 && before(e, h[(pos - 1) >> 2])) return false;
      if (slots_[si].lane == kNoLane) {
        if (slots_[si].link != kNpos) return false;
      } else if (!checkLane(slots_[si].lane, si, tag, e.when)) {
        return false;
      }
    }
    return true;
  };
  // No ordering constraint holds BETWEEN the heaps (a far event may now be
  // the global minimum); each must merely be a valid heap on its own.
  if (!checkHeap(heap_, 0) || !checkHeap(far_, kFarBit)) return false;
  // A lane is bound exactly while its head sits in a heap.
  for (std::uint32_t li = 0; li < kLanes; ++li) {
    if ((laneDelay_[li] != kFreeLane) != (heads[li] == 1)) return false;
  }
  if (followers[0] != nearFollowers_ || followers[1] != farFollowers_) {
    return false;
  }
  std::size_t freeCount = 0;
  for (std::uint32_t si = freeHead_; si != kNpos; si = slots_[si].link) {
    if (si >= slots_.size()) return false;
    if (slotPos_[si] != kNpos || slots_[si].seq != 0) return false;
    if (slots_[si].lane != kNoLane) return false;
    if (++freeCount > slots_.size()) return false;  // cycle guard
  }
  const std::size_t reserved = firingSlot_ != kNpos ? 1 : 0;
  return heap_.size() + far_.size() + nearFollowers_ + farFollowers_ +
             freeCount + reserved ==
         slots_.size();
}

void PeriodicTask::startAt(SimTime first) {
  stop();
  running_ = true;
  next_ = sim_.schedule(first, [this] { fire(); }, emitter_);
}

void PeriodicTask::stop() {
  if (running_) {
    sim_.cancel(next_);
    running_ = false;
  }
  // Always drop the handle: a stale id must not be re-cancelled later (the
  // seq may have been recycled for an unrelated event by then).
  next_ = EventId{};
}

void PeriodicTask::fire() {
  // Re-arm before invoking so the callback can stop() the task. The engine
  // re-uses this event's slot and moves the in-flight tick closure back into
  // it — no new closure, no allocation, a fresh seq for deterministic
  // same-timestamp ordering.
  next_ = sim_.rearmCurrentAfter(period_);
  fn_();
}

}  // namespace microedge
