#include "cluster/tpu_device.hpp"

#include <algorithm>
#include <cassert>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace microedge {

namespace {

SimDuration transferTime(double megabytes, double bandwidthMBps) {
  if (megabytes <= 0.0) return SimDuration::zero();
  return secondsF(megabytes / bandwidthMBps);
}

}  // namespace

TpuDevice::TpuDevice(Simulator& sim, const ModelRegistry& registry,
                     std::string id, TpuHardwareConfig config)
    : sim_(sim), registry_(registry), id_(std::move(id)),
      handle_(internTpu(id_)), config_(config) {}

Status TpuDevice::loadModels(const std::vector<std::string>& names) {
  if (names.empty()) return invalidArgument("loadModels: empty composite");
  std::vector<ModelId> composite;
  composite.reserve(names.size());
  double total = 0.0;
  for (const auto& n : names) {
    const ModelInfo* info = registry_.findPtr(n);
    if (info == nullptr) return notFound(strCat("model ", n, " not registered"));
    total += info->paramSizeMb;
    composite.push_back(info->id);
  }
  // A composite larger than parameter memory is legal (Coral partially
  // caches low-priority members), but the control plane's Model Size Rule
  // normally prevents it; log so ablation runs are visible.
  if (total > config_.paramMemoryMb) {
    ME_LOG(kDebug) << "TPU " << id_ << ": composite of " << total
                   << " MB exceeds " << config_.paramMemoryMb
                   << " MB; partial caching engaged";
  }

  // The load is processed in FIFO order with inferences: pushing the new
  // composite occupies the device for the transfer time.
  Pending job;
  job.model = ModelId{};  // invalid id marks a load job
  job.enqueueTime = sim_.now();
  job.emitter = sim_.firingEmitter();
  job.done = nullptr;
  // An emitter job queued behind an in-flight completion that was scheduled
  // untagged: taint it, or the adaptive window bound would not see this
  // queue's pending cross-shard work (simulator.hpp, taintEvent).
  if (busy_ && job.emitter) sim_.taintEvent(currentEvent_);
  loadQueue_.push_back(std::move(composite));
  queue_.push_back(std::move(job));
  if (!busy_) startNext();
  return Status::ok();
}

Status TpuDevice::invoke(ModelId model, InvokeCallback done) {
  if (registry_.byId(model) == nullptr) {
    return notFound(strCat("invoke: unknown model ",
                           model.valid() ? modelName(model) : "<invalid id>"));
  }
  Pending p;
  p.model = model;
  p.enqueueTime = sim_.now();
  p.emitter = sim_.firingEmitter();
  p.done = std::move(done);
  // See loadModels: a queued emitter job must taint the in-flight
  // completion so the FIFO chain stays visible to the adaptive bound.
  if (busy_ && p.emitter) sim_.taintEvent(currentEvent_);
  queue_.push_back(std::move(p));
  if (!busy_) startNext();
  return Status::ok();
}

int TpuDevice::residentIndex(ModelId model) const {
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    if (resident_[i] == model) return static_cast<int>(i);
  }
  return -1;
}

double TpuDevice::residentParamMb() const {
  double total = 0.0;
  for (ModelId id : resident_) total += registry_.at(id).paramSizeMb;
  return total;
}

double TpuDevice::cachedFraction(ModelId model) const {
  int index = residentIndex(model);
  return index < 0 ? 0.0 : cachedFraction_[index];
}

SimDuration TpuDevice::busyTime() const {
  SimDuration busy = completedBusy_;
  if (busy_) {
    SimTime upTo = std::min(sim_.now(), currentEnd_);
    if (upTo > currentStart_) busy += upTo - currentStart_;
  }
  return busy;
}

double TpuDevice::utilizationSince(SimDuration busyAtWindowStart,
                                   SimTime windowStart) const {
  SimDuration window = sim_.now() - windowStart;
  if (window <= SimDuration::zero()) return 0.0;
  SimDuration busy = busyTime() - busyAtWindowStart;
  return std::clamp(toSeconds(busy) / toSeconds(window), 0.0, 1.0);
}

void TpuDevice::recomputeCaching() {
  cachedFraction_.assign(resident_.size(), 0.0);
  streamPenalty_.assign(resident_.size(), SimDuration::zero());
  double remaining = config_.paramMemoryMb;
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    double size = registry_.at(resident_[i]).paramSizeMb;
    double cached = std::min(size, std::max(remaining, 0.0));
    double fraction = size > 0.0 ? cached / size : 1.0;
    cachedFraction_[i] = fraction;
    // Partial caching streams the uncached remainder on every inference;
    // precomputing it here keeps the per-invoke path free of double math.
    if (fraction < 1.0) {
      streamPenalty_[i] = transferTime(size * (1.0 - fraction),
                                       config_.hostToTpuBandwidthMBps);
    }
    remaining -= size;
  }
}

SimDuration TpuDevice::computeServiceTime(ModelId model, bool* paidSwap,
                                          bool* paidResidentSwitch) {
  const ModelInfo& info = registry_.at(model);
  *paidSwap = false;
  *paidResidentSwitch = false;
  SimDuration service = info.inferenceLatency;
  int index = residentIndex(model);
  if (index < 0) {
    // Full swap: the model's parameters replace the resident set. This is
    // exactly the overhead the Model Size Rule + co-compiling avoid.
    *paidSwap = true;
    ++swaps_;
    resident_.assign(1, model);
    recomputeCaching();
    index = 0;
    service += config_.swapOverhead +
               transferTime(std::min(info.paramSizeMb, config_.paramMemoryMb),
                            config_.hostToTpuBandwidthMBps);
    lastExecuted_ = model;
  } else if (lastExecuted_ != model) {
    *paidResidentSwitch = true;
    service += config_.residentSwitchPenalty;
    lastExecuted_ = model;
  }
  // Partial caching streams the uncached remainder on every inference.
  service += streamPenalty_[index];
  return service;
}

void TpuDevice::startNext() {
  assert(!busy_);
  if (queue_.empty()) return;
  Pending job = std::move(queue_.front());
  queue_.pop_front();

  SimDuration service;
  InvokeStats stats;
  stats.enqueueTime = job.enqueueTime;
  stats.startTime = sim_.now();

  if (!job.model.valid()) {
    // Load job: install the next queued composite.
    assert(!loadQueue_.empty());
    resident_ = std::move(loadQueue_.front());
    loadQueue_.pop_front();
    recomputeCaching();
    // The load leaves the highest-priority member set up for execution; the
    // first invoke of that model pays no context switch.
    lastExecuted_ = resident_.empty() ? ModelId{} : resident_.front();
    service = config_.swapOverhead +
              transferTime(std::min(residentParamMb(), config_.paramMemoryMb),
                           config_.hostToTpuBandwidthMBps);
  } else {
    ++invocations_;
    service =
        computeServiceTime(job.model, &stats.paidSwap, &stats.paidResidentSwitch);
  }

  busy_ = true;
  currentStart_ = sim_.now();
  currentEnd_ = currentStart_ + service;
  stats.queueDelay = stats.startTime - stats.enqueueTime;
  stats.serviceTime = service;
  stats.finishTime = currentEnd_;

  currentStats_ = stats;
  currentDone_ = std::move(job.done);
  // Re-assert the enqueuing cascade's emitter taint: this schedule often
  // runs inside the PREVIOUS job's completion cascade (see Pending::emitter).
  // The id is kept so a later emitter enqueue can taint this completion
  // retroactively (see invoke/loadModels).
  currentEvent_ =
      sim_.schedule(currentEnd_, [this] { onCurrentComplete(); }, job.emitter);
}

void TpuDevice::onCurrentComplete() {
  busy_ = false;
  completedBusy_ += currentStats_.serviceTime;
  // Detach the in-flight state before invoking: the callback may re-enter
  // invoke()/startNext() and install the next request.
  const InvokeStats stats = currentStats_;
  InvokeCallback done = std::move(currentDone_);
  currentDone_ = nullptr;
  if (done) done(stats);
  startNext();
}

}  // namespace microedge
