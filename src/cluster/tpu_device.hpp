#pragma once

// Simulated Google Coral Edge TPU.
//
// The Edge TPU processes requests *sequentially, run to completion* — the
// property the whole paper is built around: a TPU cannot be preempted, so
// fine-grained sharing must happen by interleaving whole requests. This
// device model reproduces the behaviours the evaluation depends on:
//
//  * serial FIFO execution with exclusive occupancy for the service time;
//  * a resident (co-compiled) model set bounded by ~6.9 MB of parameter
//    memory; switching between co-compiled residents is nearly free;
//  * invoking a non-resident model pays a full swap (parameter data pushed
//    over USB from host memory) and replaces the resident set;
//  * Coral's "parameter data caching": when a co-compiled composite exceeds
//    the parameter memory, the lowest-priority models are partially cached
//    and stream the uncached remainder from the host on *every* inference;
//  * exact busy-time integration for utilization measurements.
//
// Hot path (per-frame Invoke): models are dense interned ModelId handles,
// the FIFO is a recycled ring of {ModelId, enqueue time, SBO callback}
// entries, and the resident set is a small ModelId vector with per-member
// streaming penalties precomputed at load time — no strings, no maps, no
// heap allocation in steady state.

#include <cstddef>
#include <string>
#include <vector>

#include "models/registry.hpp"
#include "sim/simulator.hpp"
#include "util/event_fn.hpp"
#include "util/intern.hpp"
#include "util/ring_buffer.hpp"
#include "util/status.hpp"

namespace microedge {

struct TpuHardwareConfig {
  // Total on-chip memory is ~8 MB; the compiler reserves space for the
  // executable, leaving ~6.9 MB for parameter data (paper footnote 1).
  double paramMemoryMb = 6.9;
  // Effective host->TPU transfer bandwidth for parameter data (USB 3.0,
  // conservative sustained figure).
  double hostToTpuBandwidthMBps = 320.0;
  // Fixed setup cost added to every full model swap.
  SimDuration swapOverhead = milliseconds(5);
  // Cost of switching between two models that are both resident in a
  // co-compiled composite (context flip, no data movement).
  SimDuration residentSwitchPenalty = microseconds(200);
};

class TpuDevice {
 public:
  // Timing record for one completed Invoke, consumed by the metrics layer.
  struct InvokeStats {
    SimTime enqueueTime{};
    SimTime startTime{};
    SimTime finishTime{};
    SimDuration queueDelay{};
    SimDuration serviceTime{};  // occupancy, including switch/swap costs
    bool paidSwap = false;
    bool paidResidentSwitch = false;
  };
  // Move-only SBO callable: completions ride the device FIFO without a
  // std::function heap allocation per invoke.
  using InvokeCallback = MoveFn<void(const InvokeStats&)>;

  TpuDevice(Simulator& sim, const ModelRegistry& registry, std::string id,
            TpuHardwareConfig config = {});

  TpuDevice(const TpuDevice&) = delete;
  TpuDevice& operator=(const TpuDevice&) = delete;

  const std::string& id() const { return id_; }
  // Dense process-wide handle for this TPU (interned at construction).
  TpuId handle() const { return handle_; }
  const TpuHardwareConfig& config() const { return config_; }

  // Installs a co-compiled composite as the resident set; priority order is
  // the vector order (earlier = higher priority for parameter caching).
  // Models must exist in the registry. Replaces the previous resident set.
  // Takes `loadLatency` occupancy on the device (queued like a request so it
  // cannot preempt an in-flight inference).
  Status loadModels(const std::vector<std::string>& names);

  // Enqueues one inference. The callback fires at completion time with the
  // timing breakdown. Unknown models are rejected immediately.
  Status invoke(ModelId model, InvokeCallback done);

  // --- Introspection -------------------------------------------------------
  bool isResident(ModelId model) const { return residentIndex(model) >= 0; }
  double residentParamMb() const;
  // Fraction of `model`'s parameters cached on-chip ([0,1]); 0 if absent.
  double cachedFraction(ModelId model) const;

  std::size_t queueDepth() const { return queue_.size() + (busy_ ? 1 : 0); }
  // Projected wait before a newly-arrived request would start executing:
  // the in-flight request's remaining occupancy plus `perRequest` for each
  // queued entry (load jobs approximated the same way). Used by the client's
  // deadline-based shedding.
  SimDuration estimatedBacklog(SimTime now, SimDuration perRequest) const {
    SimDuration wait = busy_ && currentEnd_ > now ? currentEnd_ - now
                                                  : SimDuration::zero();
    return wait + static_cast<std::int64_t>(queue_.size()) * perRequest;
  }
  std::size_t invocations() const { return invocations_; }
  std::size_t swapCount() const { return swaps_; }

  // Exact busy occupancy in [epoch, now]: completed service plus the elapsed
  // part of any in-flight request.
  SimDuration busyTime() const;
  // Utilization over [from, to] given busy snapshots taken by the caller.
  double utilizationSince(SimDuration busyAtWindowStart,
                          SimTime windowStart) const;

 private:
  struct Pending {
    ModelId model{};  // invalid id marks a load job
    SimTime enqueueTime{};
    // Emitter taint of the cascade that enqueued this job, captured because
    // the FIFO carries work ACROSS cascades: a queued job's completion event
    // is scheduled from the *previous* job's completion, so without the
    // captured bit a cross-shard frame queued behind a local one would run
    // its completion (and its cross-shard response) untagged — unsound for
    // the sharded sim's adaptive window bound (DESIGN.md §12).
    bool emitter = false;
    InvokeCallback done;
  };

  void startNext();
  void onCurrentComplete();
  SimDuration computeServiceTime(ModelId model, bool* paidSwap,
                                 bool* paidResidentSwitch);
  // Index of `model` in the resident set, -1 if absent (small dense scan
  // over u32 handles — composites hold a handful of models).
  int residentIndex(ModelId model) const;
  void recomputeCaching();

  Simulator& sim_;
  const ModelRegistry& registry_;
  std::string id_;
  TpuId handle_{};
  TpuHardwareConfig config_;

  RingQueue<Pending> queue_;
  // Composites for queued load jobs (a Pending with an invalid model id
  // consumes the front entry), in FIFO correspondence with queue_.
  RingQueue<std::vector<ModelId>> loadQueue_;
  bool busy_ = false;
  SimTime currentStart_{};
  SimTime currentEnd_{};
  // In-flight request state. The device is serial run-to-completion, so at
  // most one completion is outstanding; keeping it here lets the completion
  // event capture only `this` (inline in the event slot, no allocation).
  InvokeStats currentStats_{};
  InvokeCallback currentDone_;
  // Id of the in-flight completion event, so an emitter job enqueued behind
  // it can taint it retroactively (see invoke; stale once fired — taintEvent
  // no-ops on the seq mismatch).
  EventId currentEvent_{};

  // Resident composite, priority order, with per-model cached fraction and
  // partial-cache streaming penalty (both recomputed only when the resident
  // set changes — loadModels or a full swap — never per invoke).
  std::vector<ModelId> resident_;
  std::vector<double> cachedFraction_;
  std::vector<SimDuration> streamPenalty_;
  ModelId lastExecuted_{};

  SimDuration completedBusy_{};
  std::size_t invocations_ = 0;
  std::size_t swaps_ = 0;
};

}  // namespace microedge
