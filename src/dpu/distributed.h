// Client-driven KV partitioning over a rack of Hyperion DPUs (paper §2.4's
// C1 class and discussion question 3: "How should one build CPU-free
// distributed applications ... of such standalone, passively disaggregated
// DPUs?").
//
// Passive disaggregation: the *client* holds the smartness (partitioning,
// replication, failure fallback) and the DPUs serve only fast datapath
// requests. ShardedKvClient routes MICA-style [111]: keys hash-partition
// across N DPUs and every op is a single RPC to the owning partition.
// Replication and failover on the same doctrine live in
// src/dpu/replication.h.

#ifndef HYPERION_SRC_DPU_DISTRIBUTED_H_
#define HYPERION_SRC_DPU_DISTRIBUTED_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/dpu/rpc.h"

namespace hyperion::dpu {

// Hash-partition placement of a key over `partitions` owners, shared by
// ShardedKvClient and the replicated cluster's group routing.
size_t KvPartitionOf(uint64_t key, size_t partitions);

// Asynchronous and shard-aware: each op is one ShardedRpcNode::CallAsync to
// the owning partition, so an op whose owner lives on another shard becomes
// a cross-shard frame message and ops to different partitions overlap in
// virtual time. Completions run on the calling node's shard.
class ShardedKvClient {
 public:
  // `self` is the calling node's endpoint; `partitions[i]` serves partition
  // i. Ownership stays with the caller; endpoints must outlive the client
  // and every in-flight op.
  ShardedKvClient(ShardedRpcNode* self, std::vector<ShardedRpcNode*> partitions)
      : self_(self), partitions_(std::move(partitions)) {}

  void PutAsync(uint64_t key, ByteSpan value, std::function<void(Status)> done);
  // The Buffer handed to `done` shares the response frame's backing bytes.
  void GetAsync(uint64_t key, std::function<void(Result<Buffer>)> done);

  size_t PartitionOf(uint64_t key) const { return KvPartitionOf(key, partitions_.size()); }

 private:
  void CallOwnerAsync(uint64_t key, uint16_t opcode, Bytes payload,
                      ShardedRpcNode::Completion done);

  ShardedRpcNode* self_;
  std::vector<ShardedRpcNode*> partitions_;
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_DISTRIBUTED_H_
