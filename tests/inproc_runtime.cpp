#include "inproc_runtime.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace microedge {

InprocTpuService::InprocTpuService(const ModelRegistry& registry,
                                   Config config)
    : registry_(registry), config_(std::move(config)),
      worker_([this] { workerLoop(); }) {}

InprocTpuService::~InprocTpuService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

std::chrono::nanoseconds InprocTpuService::scaled(SimDuration d) const {
  return std::chrono::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(d.count()) * config_.timeScale));
}

void InprocTpuService::load(std::vector<std::string> composite) {
  Job job;
  job.isLoad = true;
  job.composite = std::move(composite);
  job.enqueued = std::chrono::steady_clock::now();
  std::future<Result> fut = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  fut.wait();
}

StatusOr<InprocTpuService::Result> InprocTpuService::invoke(
    const std::string& model) {
  if (!registry_.contains(model)) {
    return notFound(strCat("inproc invoke: unknown model ", model));
  }
  Job job;
  job.model = model;
  job.enqueued = std::chrono::steady_clock::now();
  std::future<Result> fut = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return unavailable("TPU service shut down");
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return fut.get();
}

std::uint64_t InprocTpuService::servedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_;
}

std::uint64_t InprocTpuService::swapCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return swaps_;
}

void InprocTpuService::workerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    auto start = std::chrono::steady_clock::now();
    Result result;
    result.queueDelay = start - job.enqueued;

    if (job.isLoad) {
      // Pushing the composite takes time proportional to its size.
      double totalMb = 0.0;
      for (const auto& name : job.composite) {
        totalMb += registry_.at(name).paramSizeMb;
      }
      std::this_thread::sleep_for(scaled(millisecondsF(5.0 + totalMb * 3.0)));
      std::lock_guard<std::mutex> lock(mu_);
      resident_ = std::move(job.composite);
      lastModel_.clear();
    } else {
      const ModelInfo& info = registry_.at(job.model);
      SimDuration service = info.inferenceLatency;
      {
        std::lock_guard<std::mutex> lock(mu_);
        bool isResident = std::find(resident_.begin(), resident_.end(),
                                    job.model) != resident_.end();
        if (!isResident) {
          // Full swap: the model replaces the resident set (no co-compile).
          service += millisecondsF(5.0 + info.paramSizeMb * 3.0);
          resident_ = {job.model};
          ++swaps_;
          result.paidSwap = true;
        }
        lastModel_ = job.model;
        ++served_;
      }
      std::this_thread::sleep_for(scaled(service));
      result.serviceTime = std::chrono::steady_clock::now() - start;
    }
    job.promise.set_value(result);
  }
}

InprocClient::InprocClient(const ModelRegistry& registry, std::string model)
    : registry_(registry), model_(std::move(model)) {}

Status InprocClient::configure(
    const LbConfig& config,
    const std::map<std::string, InprocTpuService*>& directory) {
  std::vector<InprocTpuService*> resolved;
  for (const LbWeight& w : config.weights) {
    const std::string& tpu = tpuName(w.tpu);
    auto it = directory.find(tpu);
    if (it == directory.end()) {
      return notFound(strCat("inproc client: no service for ", tpu));
    }
    resolved.push_back(it->second);
  }
  ME_RETURN_IF_ERROR(wrr_.setTargets(config.weights));
  resolved_ = std::move(resolved);
  return Status::ok();
}

StatusOr<InprocTpuService::Result> InprocClient::invoke() {
  InprocTpuService* target = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (wrr_.empty()) return failedPrecondition("inproc client not configured");
    target = resolved_[wrr_.pickIndex()];
    ++invokes_;
  }
  return target->invoke(model_);
}

}  // namespace microedge
