// Distributed CPU-free applications over a rack of Hyperion DPUs (paper
// §2.4's "mixed distributed workloads" and discussion question 3).
//
// Passive disaggregation: the clients hold all the smartness (partitioning,
// replication, failover) and the DPUs serve only the fast path. Two runs on
// the sharded cluster harness show it:
//
//   * dpu::KvCluster: three DPUs, each also hosting closed-loop clients,
//     hash-partition one KV space. Every op is one RPC to the key's owner,
//     so the served RPCs spread across the rack.
//   * dpu::ReplicatedKvCluster: one chain-replicated group of three DPUs on
//     the Corfu log. The head (leader and sequencer) dies 60 us into the
//     run; the clients seal the epoch, repair the tail and fail over with no
//     coordination service, and the post-run audit re-reads every
//     acknowledged write from the survivors.
//
//   ./build/examples/distributed

#include <cstdio>

#include "src/common/check.h"
#include "src/dpu/cluster.h"
#include "src/dpu/replication.h"

using namespace hyperion;  // NOLINT

int main() {
  // ---- hash-partitioned KV -----------------------------------------------------
  dpu::ClusterOptions kv_options;
  kv_options.num_nodes = 3;
  dpu::KvCluster kv(kv_options);
  const dpu::ClusterResult kv_result = kv.Run();
  CHECK_EQ(kv_result.failed_ops, 0u);
  std::printf("partitioned KV: 3 CPU-free DPUs, %llu client ops, each one RPC to its owner\n",
              static_cast<unsigned long long>(kv_result.ok_ops));
  for (size_t node = 0; node < kv_result.nodes.size(); ++node) {
    std::printf("  DPU %zu served %llu RPCs\n", node,
                static_cast<unsigned long long>(kv_result.nodes[node].rpcs_served));
  }

  // ---- replicated KV surviving a head kill -----------------------------------
  dpu::RepClusterOptions rep_options;
  rep_options.groups = 1;
  rep_options.replicas_per_group = 3;
  rep_options.kill_node = 0;  // the head: leader and sequencer
  rep_options.kill_after_ns = 60 * sim::kMicrosecond;
  dpu::ReplicatedKvCluster rep(rep_options);
  const dpu::RepClusterResult rep_result = rep.Run();
  CHECK_EQ(rep_result.killed_nodes, 1u);
  const dpu::RepAudit audit = rep.AuditAckedWrites();
  CHECK(audit.ok());
  std::printf("\nreplicated KV: 1 group x R=3, head killed at 60 us\n");
  std::printf("  %llu puts + %llu gets acknowledged, %llu failed, %llu failover(s), "
              "%llu seal(s), %llu repair copies\n",
              static_cast<unsigned long long>(rep_result.ok_puts),
              static_cast<unsigned long long>(rep_result.ok_gets),
              static_cast<unsigned long long>(rep_result.failed_ops),
              static_cast<unsigned long long>(rep_result.failovers),
              static_cast<unsigned long long>(rep_result.seals),
              static_cast<unsigned long long>(rep_result.repair_copies));
  std::printf("  audit: %llu acknowledged writes re-read on the survivors, none lost\n",
              static_cast<unsigned long long>(audit.acked));

  std::printf("\nClients carry the distribution logic; DPUs only serve the fast path —\n"
              "the passive-disaggregation division of labor the paper argues for.\n");
  return 0;
}
