#pragma once

// Online bin-packing scan orders (§4.2).
//
// MicroEdge extends First-Fit (asymptotic approximation ratio 1.7). The
// alternatives the paper cites — Next-Fit, Best-Fit, Worst-Fit — are
// implemented for the ablation bench: they all plug into the same admission
// algorithm by changing the order in which Algorithm 1 scans the TPU pool
// (and, for Next-Fit, which TPUs it may revisit).
//
// The PackingStrategy enum and the incremental indexed scan (TpuPool::scan)
// live in core/tpu_state.hpp, next to the pool state they index; this header
// remains for include compatibility.

#include "core/tpu_state.hpp"
