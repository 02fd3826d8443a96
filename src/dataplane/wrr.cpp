#include "dataplane/wrr.hpp"

#include <cassert>
#include <numeric>

#include "util/strings.hpp"

namespace microedge {

namespace {
Status validateTargets(const std::vector<WrrTarget>& targets) {
  if (targets.empty()) return invalidArgument("WRR: empty target set");
  for (const auto& t : targets) {
    if (t.id.empty()) return invalidArgument("WRR: empty target id");
    if (t.weight == 0) {
      return invalidArgument(strCat("WRR: target ", t.id, " has zero weight"));
    }
  }
  return Status::ok();
}

// Dividing by the gcd keeps proportions identical while shortening the
// schedule period (weights arrive as milli-units, e.g. 400:200 -> 2:1).
void reduceByGcd(std::vector<WrrTarget>& targets) {
  std::uint32_t g = 0;
  for (const auto& t : targets) g = std::gcd(g, t.weight);
  if (g > 1) {
    for (auto& t : targets) t.weight /= g;
  }
}
}  // namespace

Status SmoothWrr::setTargets(std::vector<WrrTarget> targets) {
  ME_RETURN_IF_ERROR(validateTargets(targets));
  reduceByGcd(targets);
  targets_ = std::move(targets);
  current_.assign(targets_.size(), 0);
  counts_.assign(targets_.size(), 0);
  totalWeight_ = 0;
  for (const auto& t : targets_) totalWeight_ += t.weight;
  cycle_.clear();
  phase_ = 0;
  cycleBuilt_ = false;
  return Status::ok();
}

std::size_t SmoothWrr::stepLinear() {
  std::size_t best = 0;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    current_[i] += static_cast<std::int64_t>(targets_[i].weight);
    if (current_[i] > current_[best]) best = i;
  }
  current_[best] -= static_cast<std::int64_t>(totalWeight_);
  return best;
}

void SmoothWrr::buildCycleIfNeeded() {
  if (cycleBuilt_) return;
  cycleBuilt_ = true;
  if (totalWeight_ > kMaxCyclePeriod) return;  // degenerate set: keep O(n) scan
  // Deferred to the first pick so configure-heavy paths (admission churn)
  // pay nothing for pods that never route. phase_ == 0 here by definition,
  // and running the argmax one full period leaves the credits back at zero.
  cycle_.reserve(static_cast<std::size_t>(totalWeight_));
  for (std::uint64_t j = 0; j < totalWeight_; ++j) {
    cycle_.push_back(static_cast<std::uint32_t>(stepLinear()));
  }
  for (std::int64_t c : current_) {
    assert(c == 0 && "smooth WRR period did not close");
    (void)c;
  }
}

std::size_t SmoothWrr::pickIndex() {
  assert(!targets_.empty() && "pick() on empty WRR");
  buildCycleIfNeeded();
  std::size_t best;
  if (cycle_.empty()) {
    best = stepLinear();
  } else {
    best = cycle_[phase_];
    if (++phase_ == totalWeight_) phase_ = 0;
  }
  ++counts_[best];
  return best;
}

std::uint64_t SmoothWrr::pickCount(const std::string& id) const {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i].id == id) return counts_[i];
  }
  return 0;
}

Status BurstWrr::setTargets(std::vector<WrrTarget> targets) {
  ME_RETURN_IF_ERROR(validateTargets(targets));
  reduceByGcd(targets);
  targets_ = std::move(targets);
  index_ = 0;
  emitted_ = 0;
  return Status::ok();
}

std::size_t BurstWrr::pickIndex() {
  assert(!targets_.empty() && "pick() on empty WRR");
  if (emitted_ >= targets_[index_].weight) {
    emitted_ = 0;
    index_ = (index_ + 1) % targets_.size();
  }
  ++emitted_;
  return index_;
}

}  // namespace microedge
