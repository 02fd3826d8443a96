#pragma once

// In-process *threaded* data plane: a test fixture for inproc_runtime_test
// and inproc_cluster_test, not part of the library.
//
// The simulator validates scheduling behaviour; this runtime validates that
// the same control-plane artifacts (co-compiled composites, LBS weights)
// drive a real concurrent data plane correctly. Each InprocTpuService runs a
// worker thread that executes requests serially, run to completion — the
// defining Edge TPU property — with service times taken from the model zoo
// and scaled down so tests stay fast. Clients block on a future, exactly how
// the Python TPU Client blocks on its socket.

#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/extended_scheduler.hpp"
#include "dataplane/wrr.hpp"
#include "models/registry.hpp"
#include "util/status.hpp"

namespace microedge {

class InprocTpuService {
 public:
  struct Config {
    std::string tpuId;
    // Wall-clock scale factor: 0.02 runs a 23.3 ms inference in ~0.47 ms.
    double timeScale = 0.02;
    double paramMemoryMb = 6.9;
  };

  struct Result {
    std::chrono::nanoseconds queueDelay{};
    std::chrono::nanoseconds serviceTime{};
    bool paidSwap = false;
  };

  InprocTpuService(const ModelRegistry& registry, Config config);
  ~InprocTpuService();
  InprocTpuService(const InprocTpuService&) = delete;
  InprocTpuService& operator=(const InprocTpuService&) = delete;

  const std::string& tpuId() const { return config_.tpuId; }

  // Load primitive: installs the composite (synchronous w.r.t. new invokes:
  // it is queued behind in-flight requests like any other job).
  void load(std::vector<std::string> composite);

  // Invoke primitive: blocks the calling thread until the inference is done.
  StatusOr<Result> invoke(const std::string& model);

  std::uint64_t servedCount() const;
  std::uint64_t swapCount() const;

 private:
  struct Job {
    bool isLoad = false;
    std::string model;
    std::vector<std::string> composite;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<Result> promise;
  };

  void workerLoop();
  std::chrono::nanoseconds scaled(SimDuration d) const;

  const ModelRegistry& registry_;
  Config config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool shutdown_ = false;
  std::vector<std::string> resident_;
  std::string lastModel_;
  std::uint64_t served_ = 0;
  std::uint64_t swaps_ = 0;
  std::thread worker_;
};

// Client-side fan-out: smooth WRR over the pod's allocated TPU services.
class InprocClient {
 public:
  InprocClient(const ModelRegistry& registry, std::string model);

  Status configure(const LbConfig& config,
                   const std::map<std::string, InprocTpuService*>& directory);

  // One blocking end-to-end invoke (route + inference).
  StatusOr<InprocTpuService::Result> invoke();

  std::uint64_t invokeCount() const { return invokes_; }

 private:
  const ModelRegistry& registry_;
  std::string model_;
  SmoothWrr wrr_;
  // Services pre-resolved at configure time, aligned with the WRR targets —
  // each invoke routes with one pickIndex() and no map probe.
  std::vector<InprocTpuService*> resolved_;
  std::mutex mu_;  // WRR state is not thread-safe on its own
  std::uint64_t invokes_ = 0;
};

}  // namespace microedge
