#pragma once

// Synthetic Microsoft-Azure-Functions-like trace (§6.3).
//
// The paper takes the MAF'20 serverless trace, maps each function invocation
// to a camera stream, and downsizes invocation counts to the cluster's
// capacity while keeping the functions' diversity (duration, periodicity).
// The dataset itself is not redistributable, so this generator reproduces
// the three behaviour classes the paper derives from it and assigns one
// model to each, as §6.3 does:
//
//   continuous — 24x7 processing: streams that live for the whole horizon;
//   sparse     — rare Poisson arrivals with minute-scale lifetimes
//                (a camera waking up on an upstream notification);
//   bursty     — correlated arrival bursts (events drawing crowds): burst
//                epochs arrive as a Poisson process and each spawns several
//                short-lived streams at once.
//
// Generation is seeded and deterministic.

#include <string>
#include <vector>

#include "models/registry.hpp"
#include "models/zoo.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace microedge {

enum class InvocationClass { kContinuous, kSparse, kBursty };

std::string_view toString(InvocationClass cls);

struct TraceEvent {
  SimTime createAt{};
  // Stream lifetime; zero means "runs until the horizon".
  SimDuration lifetime{};
  std::string instanceName;
  InvocationClass cls = InvocationClass::kSparse;
  std::string model;
  double fps = 15.0;
  double tpuUnits = 0.0;  // profiled duty cycle at `fps`
};

struct MafTraceConfig {
  SimDuration horizon = minutes(30);
  std::uint64_t seed = 42;
};

// The class parameters are the §6.3 mix, fixed: rates are per minute of
// simulated time, tuned so the offered load meaningfully pressures a 6-TPU
// pool (the paper downsizes the MAF trace to just fit its cluster's
// capacity), and each class runs the model §6.1/§6.3 assign it.
class MafTraceGenerator {
 public:
  static constexpr double kFps = 15.0;
  static constexpr int kContinuousStreams = 6;
  static constexpr double kSparseArrivalsPerMin = 12.0;
  static constexpr SimDuration kSparseMeanLifetime = seconds(80);
  static constexpr double kBurstEpochsPerMin = 1.0;
  static constexpr double kBurstMeanSize = 5.0;
  static constexpr SimDuration kBurstMeanLifetime = seconds(150);
  // Vehicle watching 24x7, on-demand classification, event-driven
  // segmentation.
  static constexpr const char* kContinuousModel = zoo::kSsdMobileNetV2;
  static constexpr const char* kSparseModel = zoo::kMobileNetV1;
  static constexpr const char* kBurstyModel = zoo::kUNetV2;

  explicit MafTraceGenerator(MafTraceConfig config) : config_(config) {}

  // Events sorted by creation time. TPU units are profiled from the zoo.
  std::vector<TraceEvent> generate(const ModelRegistry& registry) const;

  const MafTraceConfig& config() const { return config_; }

 private:
  MafTraceConfig config_;
};

// The paper's "downsize to cluster capacity" step: walks the trace in time
// order assuming every stream is admitted, and drops creations that would
// push concurrent demand above `maxConcurrentUnits` (a mild oversubscription
// factor keeps enough pressure to differentiate scheduler configs).
std::vector<TraceEvent> downsizeToCapacity(std::vector<TraceEvent> events,
                                           double maxConcurrentUnits,
                                           SimDuration horizon);

}  // namespace microedge
