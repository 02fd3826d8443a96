#include "dataplane/wrr.hpp"

#include <cassert>
#include <numeric>

#include "util/strings.hpp"

namespace microedge {

namespace {
Status validateTargets(const std::vector<LbWeight>& targets) {
  if (targets.empty()) return invalidArgument("WRR: empty target set");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i].weight == 0) {
      return invalidArgument(strCat("WRR: target ", i, " has zero weight"));
    }
  }
  return Status::ok();
}

// Dividing by the gcd keeps proportions identical while shortening the
// schedule period (weights arrive as milli-units, e.g. 400:200 -> 2:1).
void reduceByGcd(std::vector<LbWeight>& targets) {
  std::uint32_t g = 0;
  for (const auto& t : targets) g = std::gcd(g, t.weight);
  if (g > 1) {
    for (auto& t : targets) t.weight /= g;
  }
}
}  // namespace

Status SmoothWrr::setTargets(std::vector<LbWeight> targets) {
  ME_RETURN_IF_ERROR(validateTargets(targets));
  reduceByGcd(targets);
  targets_ = std::move(targets);
  current_.assign(targets_.size(), 0);
  totalWeight_ = 0;
  for (const auto& t : targets_) totalWeight_ += t.weight;
  return Status::ok();
}

std::size_t SmoothWrr::pickIndex() {
  assert(!targets_.empty() && "pick() on empty WRR");
  std::size_t best = 0;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    current_[i] += static_cast<std::int64_t>(targets_[i].weight);
    if (current_[i] > current_[best]) best = i;
  }
  current_[best] -= static_cast<std::int64_t>(totalWeight_);
  return best;
}

Status BurstWrr::setTargets(std::vector<LbWeight> targets) {
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
