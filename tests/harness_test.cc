// Golden pins for the four cluster harnesses: every field of each harness
// result, as literals captured before the harnesses shared one
// implementation. Results are layout-invariant (each suite's own layout
// oracle pins that), so one run per harness at the default layout stands for
// all of them; these literals pin the values themselves. A change that moves
// any number here changed what a cluster run simulates.
//
// The same workloads then check what dpu::Cluster provides every harness:
// a metrics snapshot that accounts for every endpoint, and checked node ids.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/dpu/cluster.h"
#include "src/dpu/replication.h"
#include "src/load/harness.h"
#include "src/load/xdp.h"
#include "src/obs/metrics.h"
#include "tests/testutil.h"

namespace hyperion {
namespace {

using dpu::ClusterResult;
using dpu::RepClusterResult;
using load::OverloadResult;
using load::XdpClusterResult;

// -- Workloads: the suites' own oracle configurations -------------------------

// replication_test's layout, with the head of group 0 killed at its 9th
// protocol boundary: failover, seal and repair all land in the result.
dpu::RepClusterOptions KilledRepOptions() {
  dpu::RepClusterOptions options = testutil::SmallRepOptions();
  options.kill_node = 0;
  options.kill_at_boundary = 9;
  return options;
}

// load_test's block-read layout with admission on, overloaded enough to shed.
load::OverloadClusterOptions BlockReadOptions() {
  load::OverloadClusterOptions options;
  options.num_clients = 3;
  options.requests_per_client = 40;
  options.interarrival = 50 * sim::kMicrosecond;
  options.deadline = 1 * sim::kMillisecond;
  options.policy.enabled = true;
  options.policy.admission.max_pending = 32;
  options.policy.admission.max_backlog = 600 * sim::kMicrosecond;
  return options;
}

// scan_test's mixed tenant: LSM KV plus two spatial analytics clients.
load::OverloadClusterOptions LsmScanOptions() {
  load::OverloadClusterOptions options;
  options.workload = load::OverloadWorkload::kLsmKv;
  options.num_clients = 2;
  options.requests_per_client = 24;
  options.interarrival = 30 * sim::kMicrosecond;
  options.kv_key_space = 64;
  options.analytics_clients = 2;
  options.scan_requests_per_client = 4;
  options.scan_interarrival = 300 * sim::kMicrosecond;
  options.scan_table_rows = 4096;
  options.scan_rows_per_group = 512;
  options.analytics_spatial = true;
  return options;
}

// xdp_test's 3-backend cluster.
load::XdpClusterOptions XdpOptions() {
  load::XdpClusterOptions options;
  load::XdpOptions& xdp = options.xdp;
  xdp.trace.benign_flows = 1024;
  xdp.trace.hot_flows = 128;
  xdp.trace.attacker_ips = 4;
  xdp.trace.attack_packets_per_ip = 8;
  xdp.trace.steady_packets = 2048;
  xdp.trace.hot_per_myriad = 9800;
  xdp.trace.ramp_interarrival = 350 * sim::kMicrosecond;
  xdp.trace.frame_bytes = 1024;
  xdp.rx_batch = 32;
  xdp.flow_buckets = 64;
  xdp.lb_resident = 512;
  xdp.lb_spill_buckets = 64;
  xdp.codegen.mem_ports = 2;
  xdp.codegen.helper_cycles = 4;
  options.num_backends = 3;
  options.policy.enabled = true;
  options.spray_sample = 4;
  return options;
}

// -- Golden results ------------------------------------------------------------

const ClusterResult kKvGolden{
    .ok_ops = 64,
    .failed_ops = 0,
    .events_run = 136,
    .messages = 128,
    .start_ns = 2789434368,
    .makespan_ns = 4568354,
    .latency_count = 64,
    .latency_p50_ns = 335871,
    .latency_p99_ns = 1140100,
    .latency_max_ns = 1140100,
    .nodes = {
        {.node_clock_ns = 2793686795, .rpcs_served = 16, .ok_ops = 16, .failed_ops = 0},
        {.node_clock_ns = 2794001216, .rpcs_served = 12, .ok_ops = 16, .failed_ops = 0},
        {.node_clock_ns = 2793840993, .rpcs_served = 17, .ok_ops = 16, .failed_ops = 0},
        {.node_clock_ns = 2793998215, .rpcs_served = 19, .ok_ops = 16, .failed_ops = 0},
    }};

const RepClusterResult kRepGolden{
    .ok_puts = 21,
    .ok_gets = 27,
    .failed_ops = 0,
    .failovers = 15,
    .seals = 15,
    .repair_copies = 28,
    .repair_fills = 0,
    .stale_epoch = 23,
    .retries = 24,
    .partial_abandons = 0,
    .killed_nodes = 1,
    .events_run = 412,
    .messages = 380,
    .start_ns = 2789434232,
    .makespan_ns = 10321786,
    .latency_count = 48,
    .latency_p50_ns = 753663,
    .latency_p99_ns = 4803527,
    .latency_max_ns = 4803527,
    .group_epochs = {14, 0},
    .state_digest = 15923106208941214750ull,
    .history_digest = 15474201037857884605ull,
};

const OverloadResult kBlockReadGolden{
    .issued = 120,
    .ok = 33,
    .rejected = 87,
    .failed = 0,
    .deadline_missed = 0,
    .served = 120,
    .admitted = 33,
    .shed_queue = 87,
    .shed_deadline = 0,
    .messages = 240,
    .server_clock_ns = 2782712253,
    .makespan_ns = 2616929,
    .latency_count = 33,
    .latency_p50_ns = 655359,
    .latency_p99_ns = 679329,
    .latency_max_ns = 679329,
    .scan_issued = 0,
    .scan_ok = 0,
    .scan_rejected = 0,
    .scan_failed = 0,
    .scan_rows_matched = 0,
    .scan_fingerprint = 0,
    .scan_chunk_bytes = 0,
    .scan_device_bytes = 0,
    .scan_groups_skipped = 0,
    .scan_reconfigs = 0,
    .scan_reconfig_p50_ns = 0,
    .scan_reconfig_max_ns = 0,
    .scan_latency_count = 0,
    .scan_latency_p50_ns = 0,
    .scan_latency_p99_ns = 0,
    .scan_latency_max_ns = 0,
};

const OverloadResult kLsmScanGolden{
    .issued = 48,
    .ok = 48,
    .rejected = 0,
    .failed = 0,
    .deadline_missed = 0,
    .served = 48,
    .admitted = 0,
    .shed_queue = 0,
    .shed_deadline = 0,
    .messages = 112,
    .server_clock_ns = 2781986258,
    .makespan_ns = 71845331,
    .latency_count = 48,
    .latency_p50_ns = 30719,
    .latency_p99_ns = 66599,
    .latency_max_ns = 66599,
    .scan_issued = 8,
    .scan_ok = 8,
    .scan_rejected = 0,
    .scan_failed = 0,
    .scan_rows_matched = 4096,
    .scan_fingerprint = 15571570455750961485ull,
    .scan_chunk_bytes = 131440,
    .scan_device_bytes = 344064,
    .scan_groups_skipped = 48,
    .scan_reconfigs = 5,
    .scan_reconfig_p50_ns = 13893631,
    .scan_reconfig_max_ns = 17728639,
    .scan_latency_count = 8,
    .scan_latency_p50_ns = 45088767,
    .scan_latency_p99_ns = 70945310,
    .scan_latency_max_ns = 70945310,
};

const XdpClusterResult kXdpGolden{
    .xdp =
        {
            .rx_frames = 3104,
            .rx_batches = 97,
            .rx_overflow = 0,
            .drop_banned = 12,
            .auth_reports = 20,
            .auth_shed = 0,
            .bans = 4,
            .fast_hits = 2004,
            .fast_tx = 2004,
            .slow_packets = 1068,
            .slow_admitted = 1068,
            .slow_shed = 0,
            .flow_inserts = 1024,
            .flow_updates = 44,
            .teardowns = 0,
            .sprayed = 1024,
            .flow_entries = 1024,
            .flow_max_chain = 1,
            .flow_mean_chain = 1,
            .flow_overflow_buckets = 0,
            .flow_occupancy = 0.13671875,
            .lb_new_flows = 1024,
            .lb_spills = 512,
            .lb_spill_hits = 0,
            .lb_spill_entries = 512,
            .fabric_busy_ns = 3166563834,
            .clock_ns = 3166562512,
            .steady_offered = 2048,
            .steady_delivered = 2048,
            .steady_window_ns = 83162,
            .verdict_hash = 17169221322353073895ull,
        },
    .spray_issued = 256,
    .spray_ok = 256,
    .spray_rejected = 0,
    .spray_failed = 0,
    .backend_served = 256,
    .backend_shed = 0,
    .messages = 512,
    .ingress_clock_ns = 3166562512,
    .makespan_ns = 369683162,
};

TEST(HarnessGolden, KvCluster) {
  EXPECT_EQ(dpu::KvCluster(testutil::SmallClusterOptions()).Run(), kKvGolden);
}

TEST(HarnessGolden, ReplicatedKvClusterWithKill) {
  EXPECT_EQ(dpu::ReplicatedKvCluster(KilledRepOptions()).Run(), kRepGolden);
}

TEST(HarnessGolden, OverloadClusterBlockRead) {
  EXPECT_EQ(load::OverloadCluster(BlockReadOptions()).Run(), kBlockReadGolden);
}

TEST(HarnessGolden, OverloadClusterLsmScan) {
  EXPECT_EQ(load::OverloadCluster(LsmScanOptions()).Run(), kLsmScanGolden);
}

TEST(HarnessGolden, XdpCluster) {
  EXPECT_EQ(load::XdpCluster(XdpOptions()).Run(), kXdpGolden);
}

// -- The shared metrics snapshot ----------------------------------------------

// Every async call is served exactly once (sheds included), so a snapshot
// that imports every endpoint the cluster owns balances calls against
// serves; and the engine tallies it imports are the engine's own.
template <typename Harness, typename Options>
void ExpectSnapshotBalanced(const Options& options) {
  Harness cluster(options);
  cluster.Run();
  obs::MetricsRegistry registry;
  cluster.SnapshotMetrics(&registry);
  const uint64_t calls = registry.CounterValue(obs::Subsystem::kRpc, "rpc_async_calls");
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(calls, registry.CounterValue(obs::Subsystem::kRpc, "rpc_async_served"));
  EXPECT_EQ(registry.CounterValue(obs::Subsystem::kEngine, "events_run"),
            cluster.engine().stats().events_run);
}

TEST(HarnessMetrics, SnapshotServesEveryAsyncCallOnce) {
  ExpectSnapshotBalanced<dpu::KvCluster>(testutil::SmallClusterOptions());
  ExpectSnapshotBalanced<dpu::ReplicatedKvCluster>(testutil::SmallRepOptions());
  ExpectSnapshotBalanced<dpu::ReplicatedKvCluster>(KilledRepOptions());
  ExpectSnapshotBalanced<load::OverloadCluster>(BlockReadOptions());
  ExpectSnapshotBalanced<load::OverloadCluster>(LsmScanOptions());
  ExpectSnapshotBalanced<load::XdpCluster>(XdpOptions());
}

// -- Node ids are checked -----------------------------------------------------

TEST(HarnessDeathTest, KillNodeOutsideTheClusterIsRejected) {
  dpu::RepClusterOptions options = testutil::SmallRepOptions();
  options.kill_node = 4;  // 2 groups x 2 replicas: ids 0..3
  options.kill_at_boundary = 9;
  EXPECT_DEATH(dpu::ReplicatedKvCluster cluster(options), "kill_node");
  options.kill_at_boundary = dpu::RepClusterOptions::kNoKill;
  options.kill_after_ns = 60 * sim::kMicrosecond;
  EXPECT_DEATH(dpu::ReplicatedKvCluster cluster(options), "kill_node");
}

TEST(HarnessDeathTest, NodeLookupIsBoundsChecked) {
  dpu::ClusterOptions options = testutil::SmallClusterOptions();
  options.num_nodes = 1;
  EXPECT_DEATH(dpu::KvCluster(options).endpoint(1), "no node 1");
}

}  // namespace
}  // namespace hyperion
