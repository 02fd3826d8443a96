#pragma once

// Naive reference for the admission scan order, kept for the differential
// tests: TpuPool::scan must yield exactly these positions, filtered by the
// residual predicate, for every packing strategy. O(M) per call, plus a
// stable sort for Best/Worst-Fit.
//  - FirstFit: pool order.
//  - NextFit:  from `nextFitCursor` onward only (earlier bins are "closed").
//  - BestFit:  most-loaded first (tightest remaining gap), ties by index.
//  - WorstFit: least-loaded first, ties by index.

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "core/tpu_state.hpp"

namespace microedge {

inline std::vector<std::size_t> packingScanOrder(PackingStrategy strategy,
                                                 const TpuPool& pool,
                                                 std::size_t nextFitCursor) {
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  switch (strategy) {
    case PackingStrategy::kFirstFit:
      break;
    case PackingStrategy::kNextFit: {
      if (nextFitCursor > pool.size()) nextFitCursor = pool.size();
      order.erase(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(nextFitCursor));
      break;
    }
    case PackingStrategy::kBestFit:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return pool.tpus()[a].currentLoad() >
                                pool.tpus()[b].currentLoad();
                       });
      break;
    case PackingStrategy::kWorstFit:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return pool.tpus()[a].currentLoad() <
                                pool.tpus()[b].currentLoad();
                       });
      break;
  }
  return order;
}

}  // namespace microedge
