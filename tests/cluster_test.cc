// Tests for the sharded cluster simulation (src/dpu/cluster.*): the async
// sharded KV path serves every op, placement agrees with the synchronous
// client, and — the PR's acceptance property — the full run is bit-identical
// for num_shards in {1, 2, 4}.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/dpu/cluster.h"
#include "src/dpu/distributed.h"
#include "tests/testutil.h"

namespace hyperion::dpu {
namespace {

ClusterOptions SmallCluster() { return testutil::SmallClusterOptions(); }

TEST(KvPartitionTest, ShardedPlacementMatchesSynchronousClient) {
  // Neither client dereferences its stubs for PartitionOf, so null transports
  // are enough to compare placement.
  std::vector<RpcClient*> sync_stubs(5, nullptr);
  std::vector<ShardedRpcNode*> async_stubs(5, nullptr);
  DistributedKvClient sync(sync_stubs);
  ShardedKvClient sharded(nullptr, async_stubs);
  for (uint64_t key = 0; key < 512; ++key) {
    const size_t owner = KvPartitionOf(key, 5);
    EXPECT_LT(owner, 5u);
    EXPECT_EQ(sync.PartitionOf(key), owner);
    EXPECT_EQ(sharded.PartitionOf(key), owner);
  }
}

TEST(KvClusterTest, ServesEveryOpWithoutFailures) {
  KvCluster cluster(SmallCluster());
  EXPECT_EQ(cluster.num_nodes(), 4u);
  EXPECT_EQ(cluster.num_shards(), 4u);  // one per node by default
  const ClusterResult result = cluster.Run();
  const uint64_t total_ops = 4ull * 2 * 8;
  EXPECT_EQ(result.ok_ops, total_ops);
  EXPECT_EQ(result.failed_ops, 0u);
  EXPECT_EQ(result.latency_count, total_ops);
  EXPECT_GT(result.makespan_ns, 0u);
  EXPECT_GE(result.latency_p99_ns, result.latency_p50_ns);
  uint64_t served = 0;
  for (const ClusterNodeResult& node : result.nodes) {
    served += node.rpcs_served;
  }
  EXPECT_EQ(served, total_ops);  // every op is exactly one async RPC
  // A p50 below one wire round trip would mean ops skipped the fabric.
  EXPECT_GE(result.latency_p50_ns, 2 * net::MinOneWayLatency(net::FabricParams()));
}

TEST(KvClusterTest, BlockShardMappingIsMonotonic) {
  ClusterOptions options = SmallCluster();
  options.num_nodes = 8;
  options.num_shards = 3;
  KvCluster cluster(options);
  EXPECT_EQ(cluster.num_shards(), 3u);
  uint32_t previous = 0;
  for (uint32_t node = 0; node < 8; ++node) {
    const uint32_t shard = cluster.ShardOf(node);
    EXPECT_LT(shard, 3u);
    EXPECT_GE(shard, previous);
    previous = shard;
  }
  EXPECT_EQ(cluster.ShardOf(7), 2u);  // every shard is populated
}

TEST(KvClusterTest, ResultIsBitIdenticalAcrossShardLayouts) {
  EXPECT_EQ(testutil::ExpectLayoutInvariant<KvCluster>(SmallCluster()).failed_ops, 0u);
}

TEST(KvClusterTest, RepeatedRunsReproduce) {
  const ClusterResult first = KvCluster(SmallCluster()).Run();
  const ClusterResult second = KvCluster(SmallCluster()).Run();
  EXPECT_EQ(first, second);
}

TEST(KvClusterTest, SingleNodeClusterIsAllLocal) {
  ClusterOptions options = SmallCluster();
  options.num_nodes = 1;
  KvCluster cluster(options);
  const ClusterResult result = cluster.Run();
  EXPECT_EQ(result.ok_ops, 2ull * 8);
  EXPECT_EQ(result.failed_ops, 0u);
  EXPECT_EQ(cluster.engine().stats().cross_shard_messages, 0u);
}

}  // namespace
}  // namespace hyperion::dpu
