#pragma once

// Shard-mapping layer for the sharded simulation (sim/sharded_sim.hpp).
//
// Maps every cluster node to the shard that owns its event loop. The map is
// keyed by dense interned NodeId so the per-frame routing decision ("is this
// hop cross-shard?") is one vector index — no string probe.
//
// Mapping rules:
//  * The unit of partitioning is the RACK, never the node: a rack's tRPis
//    (TPU hosts) and vRPis (camera hosts) always land on the same shard, so
//    rack-local traffic — the common case the paper's deployment optimizes
//    for — never crosses a shard boundary and keeps the solo code path.
//  * Racks distribute round-robin by default: shardOfRack(r) = r % shards.
//    Any rack-count / shard-count combination is legal; shards without
//    racks simply idle at the window barrier.
//  * RackMapping::kBlock instead assigns contiguous rack blocks per shard
//    (racks [0, ceil(R/S)) to shard 0, the next block to shard 1, ...).
//    Neighbouring racks then share a shard, so stride-to-next-rack traffic
//    (the city-slice cross-rack streams) crosses shards only at block
//    boundaries — the locality the adaptive window bound turns into wide
//    windows. Results are invariant to the mapping (the same argument as
//    shard-count invariance: the mapping only partitions the event set).
//  * The map parses no names: ClusterTopology records each node's rack on
//    the node as it builds it (a flat cluster is all rack 0) and assigns
//    the node shardOfRack(rack).

#include <cstdint>
#include <vector>

#include "util/intern.hpp"

namespace microedge {

// How racks distribute over shards (see header comment).
enum class RackMapping { kRoundRobin, kBlock };

class ShardMap {
 public:
  explicit ShardMap(unsigned shards = 1) : shards_(shards < 1 ? 1 : shards) {}

  unsigned shards() const { return shards_; }

  // Selects the rack->shard policy. kBlock needs the total rack count to
  // size its blocks; call before any assign()/shardOfRack() use (the
  // mapping must be fixed for the life of the run).
  void setRackMapping(RackMapping mapping, int rackCount = 0) {
    mapping_ = mapping;
    rackCount_ = rackCount < 1 ? 1 : rackCount;
  }
  RackMapping rackMapping() const { return mapping_; }

  // Records `node`'s owner. Handles are dense, so the backing vector grows
  // to the interner's high-water mark and lookups stay O(1).
  void assign(NodeId node, unsigned shard);

  // Owner shard of `node`; unmapped nodes belong to shard 0. Hot path: one
  // bounds check plus a vector index.
  unsigned shardOf(NodeId node) const {
    return node.valid() && node.value < shardOfNode_.size()
               ? shardOfNode_[node.value]
               : 0;
  }

  unsigned shardOfRack(int rack) const {
    const unsigned r = static_cast<unsigned>(rack);
    if (mapping_ == RackMapping::kRoundRobin) return r % shards_;
    // kBlock: contiguous blocks of ceil(rackCount / shards); racks past the
    // declared count (defensive) clamp to the last shard.
    const unsigned block =
        (static_cast<unsigned>(rackCount_) + shards_ - 1) / shards_;
    const unsigned shard = r / block;
    return shard < shards_ ? shard : shards_ - 1;
  }

  std::size_t mappedCount() const { return mapped_; }

 private:
  unsigned shards_;
  RackMapping mapping_ = RackMapping::kRoundRobin;
  int rackCount_ = 1;
  std::vector<std::uint32_t> shardOfNode_;
  std::size_t mapped_ = 0;
};

}  // namespace microedge
