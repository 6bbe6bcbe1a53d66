// Replicated KvCluster tests (PR 9): Corfu chain replication, epoch/seal
// failover, and the linearizability harness pinning them.
//
// Three layers of evidence, strongest last:
//
//   1. Checker self-tests — the Wing&Gong membership checker accepts known
//      linearizable histories and rejects known violations, so a green
//      checker verdict below means something.
//   2. Fault-free replicated runs — audits, digests, determinism oracle
//      (bit-identical results across shard layouts).
//   3. The fault matrix — kill the leader/sequencer at every protocol
//      boundary it serves (reserve arrival, each chain-write arrival, the
//      applied-but-unacked ack boundary, seal arrival) and after every
//      kill: zero acknowledged-write loss, live replicas bit-identical,
//      recorded history linearizable. A double-fault sweep then kills a
//      second replica at each boundary it serves after the head died, so
//      recovery itself loses a node. A layout cross-check re-runs kills
//      across shards {1,2,4} and demands identical results, kills
//      included.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/dpu/replication.h"
#include "tests/testutil.h"

namespace hyperion {
namespace {

using dpu::RepClusterOptions;
using dpu::RepClusterResult;
using dpu::RepHistOp;
using dpu::ReplicatedKvCluster;

uint64_t InitialTag(uint64_t key) { return ReplicatedKvCluster::PreloadTag(key); }

bool Linearizable(const std::vector<RepHistOp>& history, uint64_t* bad_key = nullptr) {
  return testutil::IsLinearizable(history, InitialTag, bad_key);
}

// -- Checker self-tests ------------------------------------------------------

RepHistOp Put(uint32_t client, uint64_t key, uint64_t tag, sim::SimTime invoke,
              sim::SimTime ret, bool ok = true) {
  return RepHistOp{RepHistOp::kPut, client, key, tag, invoke, ret, ok};
}

RepHistOp Get(uint32_t client, uint64_t key, uint64_t tag, sim::SimTime invoke,
              sim::SimTime ret, bool ok = true) {
  return RepHistOp{RepHistOp::kGet, client, key, tag, invoke, ret, ok};
}

TEST(LinearizabilityChecker, AcceptsSequentialHistory) {
  std::vector<RepHistOp> history{
      Get(0, 1, InitialTag(1), 0, 10),
      Put(0, 1, 100, 20, 30),
      Get(1, 1, 100, 40, 50),
      Put(1, 1, 200, 60, 70),
      Get(0, 1, 200, 80, 90),
  };
  EXPECT_TRUE(Linearizable(history));
}

TEST(LinearizabilityChecker, AcceptsPendingPutObservedByConcurrentRead) {
  // The read overlaps the put and sees its value: the put linearized
  // before the read, inside the overlap. Legal.
  std::vector<RepHistOp> history{
      Put(0, 1, 100, 0, 100),
      Get(1, 1, 100, 10, 20),
  };
  EXPECT_TRUE(Linearizable(history));
}

TEST(LinearizabilityChecker, RejectsStaleReadAfterAckedPut) {
  // The put returned before the read was invoked, yet the read observed
  // the initial value: acked-write loss, exactly what a botched failover
  // produces.
  std::vector<RepHistOp> history{
      Put(0, 1, 100, 0, 10),
      Get(1, 1, InitialTag(1), 20, 30),
  };
  uint64_t bad_key = 0;
  EXPECT_FALSE(Linearizable(history, &bad_key));
  EXPECT_EQ(bad_key, 1u);
}

TEST(LinearizabilityChecker, RejectsNewOldInversion) {
  // Two sequential reads observing new-then-old is a retracted write even
  // though each read alone would be fine.
  std::vector<RepHistOp> history{
      Put(0, 1, 100, 0, 50),
      Get(1, 1, 100, 60, 70),
      Get(1, 1, InitialTag(1), 80, 90),
  };
  EXPECT_FALSE(Linearizable(history));
}

TEST(LinearizabilityChecker, FailedPutIsAmbiguous) {
  // A failed put may have applied (observed later) or not (never
  // observed): both histories must pass.
  std::vector<RepHistOp> applied{
      Put(0, 1, 100, 0, 10, /*ok=*/false),
      Get(1, 1, 100, 20, 30),
  };
  EXPECT_TRUE(Linearizable(applied));
  std::vector<RepHistOp> vanished{
      Put(0, 1, 100, 0, 10, /*ok=*/false),
      Get(1, 1, InitialTag(1), 20, 30),
      Get(1, 1, InitialTag(1), 40, 50),
  };
  EXPECT_TRUE(Linearizable(vanished));
}

TEST(LinearizabilityChecker, KeysAreIndependent) {
  std::vector<RepHistOp> history{
      Put(0, 1, 100, 0, 10),
      Put(0, 2, 200, 20, 30),
      Get(1, 1, 100, 40, 50),
      Get(1, 2, 200, 40, 50),
  };
  EXPECT_TRUE(Linearizable(history));
}

// -- Replicated cluster, fault-free ------------------------------------------

using testutil::SmallRepOptions;

TEST(ReplicatedCluster, FaultFreeRunAuditsCleanAndLinearizable) {
  ReplicatedKvCluster cluster(SmallRepOptions());
  const RepClusterResult result = cluster.Run();
  const uint64_t total_ops = 4ull * 2 * 6;
  EXPECT_EQ(result.ok_puts + result.ok_gets, total_ops);
  EXPECT_EQ(result.failed_ops, 0u);
  EXPECT_EQ(result.killed_nodes, 0u);
  EXPECT_EQ(result.failovers, 0u);
  EXPECT_EQ(result.partial_abandons, 0u);
  EXPECT_GT(result.ok_puts, 0u);
  EXPECT_GT(result.ok_gets, 0u);

  const dpu::RepAudit audit = cluster.AuditAckedWrites();
  EXPECT_GT(audit.acked, 0u);
  EXPECT_TRUE(audit.ok()) << "lost=" << audit.lost << " mismatched=" << audit.mismatched
                          << " divergent=" << audit.divergent;

  uint64_t bad_key = 0;
  EXPECT_TRUE(Linearizable(cluster.History(), &bad_key)) << "key " << bad_key;
}

TEST(ReplicatedCluster, ResultIsIdenticalAcrossLayouts) {
  testutil::ExpectLayoutInvariant<ReplicatedKvCluster>(SmallRepOptions());
}

TEST(ReplicatedCluster, ScheduledKillMidRunLosesNothing) {
  RepClusterOptions options;
  options.groups = 1;
  options.replicas_per_group = 3;
  options.workload.clients_per_node = 2;
  options.workload.ops_per_client = 8;
  options.workload.value_bytes = 32;
  options.workload.key_space = 48;
  options.workload.seed = 33;
  options.kill_node = 0;  // the head: sequencer dies mid-run
  options.kill_after_ns = 60 * sim::kMicrosecond;
  ReplicatedKvCluster cluster(options);
  const RepClusterResult result = cluster.Run();
  EXPECT_EQ(result.killed_nodes, 1u);
  EXPECT_GT(result.failovers, 0u);
  EXPECT_GT(result.seals, 0u);
  EXPECT_EQ(result.failed_ops, 0u);
  EXPECT_EQ(result.partial_abandons, 0u);

  const dpu::RepAudit audit = cluster.AuditAckedWrites();
  EXPECT_GT(audit.acked, 0u);
  EXPECT_TRUE(audit.ok()) << "lost=" << audit.lost << " mismatched=" << audit.mismatched
                          << " divergent=" << audit.divergent;
  uint64_t bad_key = 0;
  EXPECT_TRUE(Linearizable(cluster.History(), &bad_key)) << "key " << bad_key;
}

// -- The fault matrix --------------------------------------------------------

// Victim layout for the matrix: one 3-replica group, victim = the head
// (leader/sequencer), so every kill hits the most load-bearing role.
RepClusterOptions MatrixOptions() {
  RepClusterOptions options;
  options.groups = 1;
  options.replicas_per_group = 3;
  options.workload.clients_per_node = 1;
  options.workload.ops_per_client = 5;
  options.workload.value_bytes = 24;
  options.workload.key_space = 24;
  options.workload.seed = 5;
  options.kill_node = 0;
  return options;
}

TEST(ReplicatedFaultMatrix, KillLeaderAtEveryProtocolBoundary) {
  // Size the sweep from a fault-free run: every request arrival plus every
  // post-apply ack boundary the victim serves.
  uint64_t boundaries = 0;
  {
    ReplicatedKvCluster cluster(MatrixOptions());
    cluster.Run();
    boundaries = cluster.VictimBoundaries(0);
  }
  ASSERT_GT(boundaries, 0u);
  // Cap the sweep cost while still touching first/last boundaries; the
  // kill lands inside reserve arrivals, partial chain writes, the
  // applied-unacked ack point, and seal arrivals along the way.
  const uint64_t stride = boundaries > 48 ? (boundaries + 47) / 48 : 1;
  uint64_t swept = 0;
  uint64_t kills = 0;
  for (uint64_t skip = 0; skip < boundaries; skip += stride) {
    RepClusterOptions options = MatrixOptions();
    options.kill_at_boundary = skip;
    ReplicatedKvCluster cluster(options);
    const RepClusterResult result = cluster.Run();
    ++swept;
    kills += result.killed_nodes;
    EXPECT_LE(result.killed_nodes, 1u);
    EXPECT_EQ(result.partial_abandons, 0u) << "skip=" << skip;

    const dpu::RepAudit audit = cluster.AuditAckedWrites();
    EXPECT_TRUE(audit.ok()) << "skip=" << skip << " lost=" << audit.lost
                            << " mismatched=" << audit.mismatched
                            << " divergent=" << audit.divergent;
    uint64_t bad_key = 0;
    EXPECT_TRUE(Linearizable(cluster.History(), &bad_key))
        << "skip=" << skip << " key=" << bad_key;
  }
  EXPECT_GT(swept, 8u);
  EXPECT_GT(kills, 0u);  // the sweep actually exercised kills
}

TEST(ReplicatedFaultMatrix, SecondReplicaDiesMidRecovery) {
  // Double faults: the head dies at one of a few boundaries, then replica 1
  // dies at each boundary it serves in that run, so the second death lands
  // inside the seal, repair and tail-adoption steps of the first recovery.
  for (const uint64_t head_boundary : {3ull, 7ull, 12ull, 20ull}) {
    RepClusterOptions options = MatrixOptions();
    options.kill_at_boundary = head_boundary;
    uint64_t boundaries = 0;
    {
      ReplicatedKvCluster cluster(options);
      cluster.Run();
      boundaries = cluster.VictimBoundaries(1);
    }
    ASSERT_GT(boundaries, 0u);
    for (uint64_t skip = 0; skip < boundaries; ++skip) {
      sim::Engine clock;
      sim::FaultPlan plan;
      plan.AtQuery(sim::FaultSite::kNodeKill, skip);
      sim::FaultInjector injector(&clock, plan);
      ReplicatedKvCluster cluster(options);
      cluster.service(1).SetFaultInjector(&injector);
      const RepClusterResult result = cluster.Run();
      EXPECT_EQ(result.killed_nodes, 2u) << "head=" << head_boundary << " skip=" << skip;
      EXPECT_EQ(result.failed_ops, 0u) << "head=" << head_boundary << " skip=" << skip;
      const dpu::RepAudit audit = cluster.AuditAckedWrites();
      EXPECT_TRUE(audit.ok()) << "head=" << head_boundary << " skip=" << skip
                              << " lost=" << audit.lost << " mismatched=" << audit.mismatched
                              << " divergent=" << audit.divergent;
      uint64_t bad_key = 0;
      EXPECT_TRUE(Linearizable(cluster.History(), &bad_key))
          << "head=" << head_boundary << " skip=" << skip << " key=" << bad_key;
    }
  }
}

TEST(ReplicatedFaultMatrix, KilledRunsAreIdenticalAcrossLayouts) {
  // Bit-identical recovery: the same kill must produce the same result —
  // including failover counters, digests, and the full history — on every
  // shard layout, and every layout's run must audit clean and stay
  // linearizable. Victim layout: 2 groups x 2 replicas so the
  // cluster spreads across up to 4 shards.
  uint64_t kills_seen = 0;
  for (const uint64_t boundary : {2ull, 9ull, 17ull}) {
    RepClusterOptions options = SmallRepOptions();
    options.kill_node = 0;
    options.kill_at_boundary = boundary;
    kills_seen += testutil::ExpectLayoutInvariant<ReplicatedKvCluster>(
                      options,
                      [boundary](ReplicatedKvCluster& cluster) {
                        EXPECT_TRUE(cluster.AuditAckedWrites().ok()) << "boundary=" << boundary;
                        EXPECT_TRUE(Linearizable(cluster.History())) << "boundary=" << boundary;
                      })
                      .killed_nodes;
  }
  EXPECT_GT(kills_seen, 0u);
}

}  // namespace
}  // namespace hyperion
