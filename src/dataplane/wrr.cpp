#include "dataplane/wrr.hpp"

#include <cassert>
#include <numeric>

#include "util/strings.hpp"

namespace microedge {

StatusOr<std::uint32_t> wrrWeightGcd(const std::vector<LbWeight>& weights) {
  if (weights.empty()) return invalidArgument("WRR: empty target set");
  std::uint32_t g = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i].weight == 0) {
      return invalidArgument(strCat("WRR: target ", i, " has zero weight"));
    }
    g = std::gcd(g, weights[i].weight);
  }
  return g;
}

namespace {
// The validated set as WRR targets with reduced weights and zero credit.
StatusOr<std::vector<WrrTarget>> wrrTargets(
    const std::vector<LbWeight>& weights) {
  auto gcd = wrrWeightGcd(weights);
  if (!gcd.isOk()) return gcd.status();
  std::vector<WrrTarget> targets;
  targets.reserve(weights.size());
  for (const LbWeight& w : weights) targets.push_back({w.tpu, w.weight / *gcd});
  return targets;
}
}  // namespace

Status SmoothWrr::setTargets(const std::vector<LbWeight>& weights) {
  auto targets = wrrTargets(weights);
  if (!targets.isOk()) return targets.status();
  targets_ = std::move(targets).value();
  totalWeight_ = 0;
  for (const WrrTarget& t : targets_) totalWeight_ += t.weight;
  return Status::ok();
}

std::size_t SmoothWrr::pickIndex() {
  assert(!targets_.empty() && "pick() on empty WRR");
  return smoothWrrPick(targets_.data(), targets_.size(), totalWeight_);
}

Status BurstWrr::setTargets(const std::vector<LbWeight>& weights) {
  auto targets = wrrTargets(weights);
  if (!targets.isOk()) return targets.status();
  targets_ = std::move(targets).value();
  cursor_ = 0;
  emitted_ = 0;
  return Status::ok();
}

std::size_t BurstWrr::pickIndex() {
  assert(!targets_.empty() && "pick() on empty WRR");
  return burstWrrPick(targets_.data(), targets_.size(), cursor_, emitted_);
}

}  // namespace microedge
