#include "trace/maf.hpp"

#include <algorithm>
#include <map>

#include "util/strings.hpp"

namespace microedge {

std::string_view toString(InvocationClass cls) {
  switch (cls) {
    case InvocationClass::kContinuous:
      return "continuous";
    case InvocationClass::kSparse:
      return "sparse";
    case InvocationClass::kBursty:
      return "bursty";
  }
  return "unknown";
}

std::vector<TraceEvent> MafTraceGenerator::generate(
    const ModelRegistry& registry) const {
  Pcg32 rng(config_.seed);
  std::vector<TraceEvent> events;
  double horizonSec = toSeconds(config_.horizon);
  int counter = 0;

  auto unitsFor = [&](const std::string& model) {
    return registry.at(model).tpuUnitsAt(kFps);
  };
  auto push = [&](InvocationClass cls, const std::string& model, double atSec,
                  SimDuration lifetime) {
    TraceEvent ev;
    ev.createAt = kSimEpoch + secondsF(atSec);
    ev.lifetime = lifetime;
    ev.instanceName = strCat("trace-", toString(cls), "-", counter++);
    ev.cls = cls;
    ev.model = model;
    ev.fps = kFps;
    ev.tpuUnits = unitsFor(model);
    events.push_back(std::move(ev));
  };

  // Continuous (24x7) streams: present from the start, never leave.
  for (int i = 0; i < kContinuousStreams; ++i) {
    push(InvocationClass::kContinuous, kContinuousModel,
         0.5 * static_cast<double>(i), SimDuration::zero());
  }

  // Sparse: Poisson arrivals, exponential lifetimes.
  {
    Pcg32 sparseRng = rng.split();
    double meanGapSec = 60.0 / kSparseArrivalsPerMin;
    double t = sparseRng.exponential(meanGapSec);
    while (t < horizonSec) {
      double life = sparseRng.exponential(
          toSeconds(kSparseMeanLifetime));
      push(InvocationClass::kSparse, kSparseModel, t,
           secondsF(std::max(life, 5.0)));
      t += sparseRng.exponential(meanGapSec);
    }
  }

  // Bursty: Poisson burst epochs, each spawning several short streams.
  {
    Pcg32 burstRng = rng.split();
    double meanGapSec = 60.0 / kBurstEpochsPerMin;
    double t = burstRng.exponential(meanGapSec);
    while (t < horizonSec) {
      int size = 1 + burstRng.poisson(kBurstMeanSize - 1.0);
      for (int i = 0; i < size; ++i) {
        double jitter = burstRng.uniform(0.0, 3.0);
        double life = burstRng.exponential(
            toSeconds(kBurstMeanLifetime));
        push(InvocationClass::kBursty, kBurstyModel, t + jitter,
             secondsF(std::max(life, 10.0)));
      }
      t += burstRng.exponential(meanGapSec);
    }
  }

  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.createAt != b.createAt) return a.createAt < b.createAt;
              return a.instanceName < b.instanceName;
            });
  return events;
}

std::vector<TraceEvent> downsizeToCapacity(std::vector<TraceEvent> events,
                                           double maxConcurrentUnits,
                                           SimDuration horizon) {
  // Sweep in time order, tracking the demand that would be concurrent if
  // everything were admitted; drop creations that exceed the cap.
  std::vector<TraceEvent> kept;
  std::multimap<SimTime, double> endings;  // endAt -> units
  double concurrent = 0.0;
  for (TraceEvent& ev : events) {
    while (!endings.empty() && endings.begin()->first <= ev.createAt) {
      concurrent -= endings.begin()->second;
      endings.erase(endings.begin());
    }
    if (concurrent + ev.tpuUnits > maxConcurrentUnits) continue;
    concurrent += ev.tpuUnits;
    SimTime endAt = ev.lifetime == SimDuration::zero()
                        ? kSimEpoch + horizon
                        : ev.createAt + ev.lifetime;
    endings.emplace(endAt, ev.tpuUnits);
    kept.push_back(std::move(ev));
  }
  return kept;
}

}  // namespace microedge
