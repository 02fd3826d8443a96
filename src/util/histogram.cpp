#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace microedge {

void Summary::add(double v) {
  samples_.push_back(v);
  sorted_ = false;
  sum_ += v;
  sumSq_ += v * v;
}

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
  sum_ += other.sum_;
  sumSq_ += other.sumSq_;
}

double Summary::mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  double n = static_cast<double>(samples_.size());
  double var = (sumSq_ - sum_ * sum_ / n) / (n - 1);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

void Summary::sortIfNeeded() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Summary::min() const {
  if (samples_.empty()) return 0.0;
  sortIfNeeded();
  return samples_.front();
}

double Summary::max() const {
  if (samples_.empty()) return 0.0;
  sortIfNeeded();
  return samples_.back();
}

double Summary::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  sortIfNeeded();
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(samples_.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace microedge
