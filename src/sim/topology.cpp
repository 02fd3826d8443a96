#include "sim/topology.hpp"

#include <cassert>

namespace microedge {

void ShardMap::assign(NodeId node, unsigned shard) {
  assert(node.valid() && "assigning shard to invalid node handle");
  assert(shard < shards_ && "shard index out of range");
  if (node.value >= shardOfNode_.size()) {
    shardOfNode_.resize(node.value + 1, 0);
  }
  shardOfNode_[node.value] = shard;
  ++mapped_;
}

}  // namespace microedge
