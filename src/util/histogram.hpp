#pragma once

// Latency/statistics accumulators used by the metrics layer and the bench
// report printers. Samples are stored exactly (experiment scales are small
// enough), so quantiles are exact rather than sketch-approximated.

#include <cstddef>
#include <vector>

#include "util/time.hpp"

namespace microedge {

// Streaming summary over double samples: count/mean/stddev/min/max plus exact
// quantiles computed on demand.
class Summary {
 public:
  void add(double v);
  void merge(const Summary& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }
  // q in [0, 1]; linear interpolation between closest ranks.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void sortIfNeeded() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
  double sumSq_ = 0.0;
};

// Summary over durations, reported in milliseconds.
class DurationSummary {
 public:
  void add(SimDuration d) { summary_.add(toMilliseconds(d)); }
  std::size_t count() const { return summary_.count(); }
  bool empty() const { return summary_.empty(); }
  double meanMs() const { return summary_.mean(); }
  double minMs() const { return summary_.min(); }
  double maxMs() const { return summary_.max(); }
  double p99Ms() const { return summary_.p99(); }
  const Summary& raw() const { return summary_; }

 private:
  Summary summary_;
};

}  // namespace microedge
