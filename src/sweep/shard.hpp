#pragma once

// Sharded result emission and the deterministic merge.
//
// A sweep's points are partitioned into K shards by point index
// (index % K). Each shard file carries the grid identity plus its points
// sorted by global index; merging folds shard files back into one document
// whose bytes depend only on (grid, per-point results) — the shard count,
// thread count and completion order all cancel out:
//
//   shard file:  {"sweep_shard": 1, "grid": ..., "fingerprint": ...,
//                 "shard": k, "shards": K, "points": [...]}
//   merged file: {"sweep": 1, "grid": ..., "fingerprint": ...,
//                 "points": [ {"i": 0, "seed": ..., "config": {...},
//                              "result": {...}}, ... ]}
//
// The merged document deliberately excludes anything run-dependent (wall
// clock, thread count, shard paths); timing lives in the runner's report
// and stderr progress lines instead, so BENCH_sweep.json can be compared
// byte-for-byte across configurations — that equality is the subsystem's
// central test.

#include <string>
#include <vector>

#include "sweep/grid.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace microedge {

// Which shard owns a point. Modulo striping balances shards even when the
// grid is ordered cheap-to-expensive (pool-size axes usually are).
inline std::size_t sweepShardOf(std::size_t pointIndex,
                                std::size_t shardCount) {
  return shardCount < 2 ? 0 : pointIndex % shardCount;
}

// Shard file path: "<base>.shard<k>-of<K>.json".
std::string sweepShardPath(const std::string& basePath, std::size_t shard,
                           std::size_t shardCount);

// One completed point, fully described (config + seed are embedded so the
// merged file is self-contained and replayable).
struct SweepPointRecord {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  JsonValue config;  // the point's axis values
  JsonValue result;  // the point function's output
};

// Builds one shard document from the records owned by `shard` (records may
// arrive in any completion order; they are sorted by index here).
JsonValue buildShardDocument(const SweepGrid& grid,
                             std::vector<SweepPointRecord> records,
                             std::size_t shard, std::size_t shardCount);

// Folds shard documents into the canonical merged document. Validates that
// every document belongs to `grid`, that no point is missing or duplicated,
// and orders points by global index.
StatusOr<JsonValue> mergeShardDocuments(const SweepGrid& grid,
                                        const std::vector<JsonValue>& shards);

// File-level conveniences for the sweep_runner CLI and tests.
Status writeTextFile(const std::string& path, const std::string& contents);
StatusOr<std::string> readTextFile(const std::string& path);

}  // namespace microedge
