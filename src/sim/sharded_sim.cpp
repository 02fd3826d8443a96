#include "sim/sharded_sim.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace microedge {

namespace {
// Shard whose event loop this thread is executing; 0 everywhere outside a
// sharded run's worker threads (setup, solo runs, tests).
thread_local unsigned tlsCurrentShard = 0;
}  // namespace

unsigned ShardRouter::currentShard() { return tlsCurrentShard; }

ShardedSim::ShardedSim(unsigned shards, SimDuration lookahead,
                       WindowBound bound)
    : map_(shards), lookahead_(lookahead) {
  assert(lookahead > SimDuration::zero() && "lookahead must be positive");
  const unsigned n = map_.shards();
  sims_.reserve(n);
  for (unsigned s = 0; s < n; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
    // The emitter side-index narrows the bound to the earliest emitter;
    // enabled here — before any actor schedules — because flipping it later
    // would miss already-pending emitters. Off (kFixed), nextEmitterTime()
    // is nextEventTime().
    if (bound == WindowBound::kAdaptive && n > 1) {
      sims_.back()->setEmitterTracking(true);
    }
  }
  mail_.resize(static_cast<std::size_t>(n) * n);
  shardWindowFired_.resize(n, 0);
  stallNanos_.resize(n, 0);
}

void ShardedSim::postToShard(unsigned shard, SimTime deliverAt, EventFn fn,
                             bool emitter) {
  assert(shard < sims_.size());
  const unsigned src = currentShard();
  if (!running_ || shard == src) {
    // Setup-phase arming (single-threaded, no worker owns any sim yet) or a
    // same-shard post: schedule directly, exactly like the solo path.
    sims_[shard]->schedule(deliverAt, std::move(fn), emitter);
    return;
  }
  // The delivery-time invariant, checked in every build: a send at t must
  // not deliver before t + lookahead, and — the sharper check, which under
  // kAdaptive catches an untagged cascade sending cross-shard — not before
  // the bound every shard is advancing to. A violating message would still
  // be drained, then clamped to the receiver's clock and fired out of
  // order, so abort instead of computing a wrong result.
  const SimTime sentAt = sims_[src]->now();
  if (deliverAt < sentAt + lookahead_ || deliverAt < windowBound_) {
    const auto ns = [](SimTime t) {
      return static_cast<long long>(t.time_since_epoch().count());
    };
    std::fprintf(stderr,
                 "ShardedSim: cross-shard send %u -> %u deliverAt=%lld ns "
                 "violates the delivery-time invariant (sender now=%lld ns, "
                 "lookahead=%lld ns, window bound=%lld ns)\n",
                 src, shard, ns(deliverAt), ns(sentAt),
                 static_cast<long long>(lookahead_.count()), ns(windowBound_));
    std::abort();
  }
  Mailbox& box = mailbox(src, shard);
  if (box.msgs.size() >= kMailboxCapacity) {
    std::fprintf(stderr,
                 "ShardedSim: mailbox %u -> %u overflow (%zu messages in one "
                 "window, capacity %zu)\n",
                 src, shard, box.msgs.size(), kMailboxCapacity);
    std::abort();
  }
  MailMsg msg;
  msg.deliverAt = deliverAt;
  msg.sentAt = sentAt;
  msg.srcSeq = box.nextSeq++;
  msg.fn = std::move(fn);
  box.msgs.push_back(std::move(msg));
}

// Events-per-window histogram: bucket by bit width, last bucket saturates.
void ShardedSim::recordWindowEvents() {
  if (!histPrimed_) {  // a run's first barrier: no window ran before it
    histPrimed_ = true;
    return;
  }
  std::uint64_t fired = 0;
  for (std::uint64_t f : shardWindowFired_) fired += f;
  std::size_t bucket = 0;
  while (bucket + 1 < kWindowHistBuckets && (1ull << bucket) <= fired) {
    ++bucket;
  }
  ++windowHist_[bucket];
}

void ShardedSim::serialPhase(SimTime deadline) {
  const unsigned n = static_cast<unsigned>(sims_.size());
  recordWindowEvents();
  // Drain every mailbox in deterministic merge order. Within one (src,dst)
  // pair messages are already in send order; across pairs, order by
  // (deliverAt, sentAt, srcShard, srcSeq) so the schedule-sequence numbers
  // the destination assigns — the equal-timestamp tiebreak — depend only on
  // simulation state, never on which worker thread ran first.
  std::vector<Drained>& drained = drainScratch_;  // capacity reused
  drained.clear();
  for (unsigned src = 0; src < n; ++src) {
    for (unsigned dst = 0; dst < n; ++dst) {
      Mailbox& box = mailbox(src, dst);
      for (MailMsg& m : box.msgs) {
        drained.push_back(Drained{std::move(m), src, dst});
      }
      box.msgs.clear();
    }
  }
  std::sort(drained.begin(), drained.end(),
            [](const Drained& a, const Drained& b) {
              if (a.msg.deliverAt != b.msg.deliverAt)
                return a.msg.deliverAt < b.msg.deliverAt;
              if (a.msg.sentAt != b.msg.sentAt)
                return a.msg.sentAt < b.msg.sentAt;
              if (a.src != b.src) return a.src < b.src;
              return a.msg.srcSeq < b.msg.srcSeq;
            });
  crossMessages_ += drained.size();
  for (Drained& d : drained) {
    // Delivery-time invariant: everything sent in the closed window is due
    // at or after the bound every shard just advanced to. Deliveries are
    // scheduled emitter-tagged: their cascades (a frame arriving at a
    // remote service, a NACK resuming a client) may well send back.
    assert(d.msg.deliverAt >= sims_[d.dst]->now());
    sims_[d.dst]->schedule(d.msg.deliverAt, std::move(d.msg.fn),
                           /*emitter=*/true);
  }

  // Next window: B = min over shards of nextEmitterTime() + lookahead. The
  // done protocol keys off the true next event — a shard with only local
  // work left must keep firing it.
  SimTime minNext = SimTime::max();
  SimTime minEcsb = SimTime::max();
  bool allAtDeadline = true;
  for (unsigned s = 0; s < n; ++s) {
    minNext = std::min(minNext, sims_[s]->nextEventTime());
    minEcsb = std::min(minEcsb, sims_[s]->nextEmitterTime());
    allAtDeadline = allAtDeadline && sims_[s]->now() >= deadline;
  }
  const SimTime pastDeadline = deadline + nanoseconds(1);
  if (minNext > deadline) {
    // Nothing left inside the horizon: one final window advances every
    // clock to the deadline, the round after that observes it and stops.
    done_ = allAtDeadline;
    windowBound_ = pastDeadline;
    windowAdvanceTo_ = deadline;
  } else {
    // minEcsb >= minNext always (emitters are a subset of events); it may
    // be SimTime::max() — no emitter pending anywhere — where the whole rest
    // of the horizon is one window (guard before the +lookahead overflow).
    windowBound_ = minEcsb > deadline
                       ? pastDeadline
                       : std::min(minEcsb + lookahead_, pastDeadline);
    windowAdvanceTo_ = std::min(windowBound_, deadline);
    if (windowBound_ > std::min(minNext + lookahead_, pastDeadline)) {
      ++adaptiveWindows_;
    }
  }
  ++windows_;
}

void ShardedSim::workerLoop(unsigned shard, SimTime deadline) {
  InternDomainAdopt adopt(*domain_);
  tlsCurrentShard = shard;
  const unsigned n = static_cast<unsigned>(sims_.size());
  using WallClock = std::chrono::steady_clock;
  for (;;) {
    {
      const auto waitStart = WallClock::now();
      std::unique_lock<std::mutex> lock(barrierMu_);
      if (++arrived_ == n) {
        // Leader: every peer is parked, mailboxes and sims are quiescent.
        serialPhase(deadline);
        arrived_ = 0;
        ++barrierEpoch_;
        barrierCv_.notify_all();
      } else {
        const std::uint64_t epoch = barrierEpoch_;
        barrierCv_.wait(lock, [&] { return barrierEpoch_ != epoch; });
      }
      stallNanos_[shard] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              WallClock::now() - waitStart)
              .count());
      if (done_) break;
    }
    shardWindowFired_[shard] =
        sims_[shard]->runBefore(windowBound_, windowAdvanceTo_);
  }
  tlsCurrentShard = 0;
}

std::size_t ShardedSim::run(SimTime deadline) {
  assert(!running_ && "ShardedSim::run is not reentrant");
  std::size_t firedBefore = 0;
  for (const auto& sim : sims_) firedBefore += sim->firedCount();

  if (sims_.size() == 1) {
    // Canonical path: the plain engine loop, bit for bit.
    sims_[0]->runUntil(deadline);
  } else {
    domain_ = &currentInternDomain();
    done_ = false;
    histPrimed_ = false;
    running_ = true;
    // One thread per shard for the whole run: the barrier needs every
    // shard's worker to arrive.
    std::vector<std::thread> workers;
    workers.reserve(sims_.size());
    for (unsigned s = 0; s < sims_.size(); ++s) {
      workers.emplace_back([this, s, deadline] { workerLoop(s, deadline); });
    }
    for (std::thread& worker : workers) worker.join();
    running_ = false;
  }

  std::size_t firedAfter = 0;
  for (const auto& sim : sims_) firedAfter += sim->firedCount();
  return firedAfter - firedBefore;
}

std::size_t ShardedSim::pendingCount() const {
  std::size_t pending = 0;
  for (const auto& sim : sims_) pending += sim->pendingCount();
  return pending;
}

}  // namespace microedge
