#pragma once

// Latency/statistics accumulators used by the metrics layer and the bench
// report printers. Samples are stored exactly (experiment scales are small
// enough), so quantiles are exact rather than sketch-approximated.

#include <cstddef>
#include <string>
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

// Fixed-width bucket histogram (for distribution-shaped report output).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double v);
  std::size_t count() const { return total_; }
  std::size_t bucketValue(std::size_t i) const { return counts_[i]; }
  double bucketLow(std::size_t i) const { return lo_ + i * width_; }
  double bucketHigh(std::size_t i) const { return lo_ + (i + 1) * width_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }

  // ASCII rendering, one line per non-empty bucket.
  std::string render(std::size_t maxBarWidth = 40) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace microedge
