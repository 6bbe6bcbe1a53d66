// Sharded overload harness: open-loop clients vs one Hyperion server (PR 5).
//
// OverloadCluster is the determinism-grade E13 experiment: node 0 is a full
// Hyperion DPU serving NVMe-oF-style block reads, nodes 1..N are client
// nodes (endpoint-only, no server) each running a LoadGen that issues
// deadline-stamped BlockOp::kRead RPCs across the sharded fabric. The
// server's RpcOverloadPolicy is the with/without-admission-control axis:
//
//   OFF  arrivals queue on the server's node clock without bound; latency
//        grows with offered load (the open-loop hockey stick).
//   ON   the bounded pending queue + deadline shedding answer doomed
//        requests with kResourceExhausted after reject_cost only, keeping
//        admitted-request latency bounded and goodput at the plateau.
//
// On dpu::Cluster it inherits KvCluster's layout invariance: nodes share no
// mutable state, construction order pins source order, and every client
// start time is distinct — OverloadResult is bit-identical across
// num_shards (tests/load_test.cc pins shards {1, 2, 4}).

#ifndef HYPERION_SRC_LOAD_HARNESS_H_
#define HYPERION_SRC_LOAD_HARNESS_H_

#include <cstdint>
#include <memory>

#include "src/dpu/cluster.h"
#include "src/dpu/rpc.h"
#include "src/dpu/services.h"
#include "src/format/scan_kernel.h"
#include "src/fpga/fabric.h"
#include "src/fpga/scheduler.h"
#include "src/load/loadgen.h"
#include "src/nvme/zns.h"
#include "src/sim/fault.h"
#include "src/storage/lsm_engine.h"

namespace hyperion::load {

// What the server serves and the clients issue.
enum class OverloadWorkload {
  kBlockRead,  // NVMe-oF-style BlockOp::kRead (the original E13 shape)
  kLsmKv,      // the PR 6 LSM engine served over RPC: KvOp::kPut / kGet
};

struct OverloadClusterOptions : dpu::ClusterBaseOptions {
  uint32_t num_clients = 3;  // client nodes; node 0 is the server
  // Per-client open-loop arrival process (LoadGen semantics); a block read
  // is one block.
  uint32_t requests_per_client = 64;
  sim::Duration interarrival = 20 * sim::kMicrosecond;
  sim::Duration deadline = 1 * sim::kMillisecond;  // relative; 0 = none
  // Workload selection (kLsmKv: the server formats an LsmEngine on a zoned
  // namespace and serves it under ServiceId::kLsmKv; puts are acknowledged
  // only after their WAL group sync, so every kOk is durable).
  OverloadWorkload workload = OverloadWorkload::kBlockRead;
  uint64_t kv_key_space = 256;   // preloaded before the measured phase
  uint32_t kv_write_pct = 50;    // percent of issued ops that are puts
  uint32_t kv_value_bytes = 64;
  // Server-side overload policy (the experiment's independent variable).
  dpu::RpcOverloadPolicy policy;
  // -- Analytics tenant (PR 10) ----------------------------------------------
  // `analytics_clients` extra client nodes (ids num_clients+1 ..) issue
  // ScanOp::kQuery, without deadlines, against a Parquet table on the
  // server's NVMe, scanned by FPGA kernels on a two-region fabric. With
  // analytics_spatial the scans run behind a *second* endpoint on node 0
  // with its own node clock — spatial multiplexing on the same fabric, zero
  // head-of-line coupling with KV. Without it the scan handler shares the
  // KV pipeline (the time-shared contrast arm).
  uint32_t analytics_clients = 0;
  uint32_t scan_requests_per_client = 8;
  sim::Duration scan_interarrival = 200 * sim::kMicrosecond;
  uint64_t scan_table_rows = 32768;
  uint64_t scan_rows_per_group = 2048;
  bool analytics_spatial = true;
  // Fault plan evaluated on the analytics exec clock, hooked to the scan
  // path's NVMe controller and fabric (PR 1 semantics).
  sim::FaultPlan scan_faults;
};

// Deterministic run snapshot; equality across shard layouts is the
// regression oracle.
struct OverloadResult {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  uint64_t deadline_missed = 0;
  // Server-side accounting.
  uint64_t served = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue = 0;
  uint64_t shed_deadline = 0;
  uint64_t messages = 0;
  sim::SimTime server_clock_ns = 0;
  sim::SimTime makespan_ns = 0;
  // Client-observed latency of in-deadline successes, merged across the KV
  // client nodes only (analytics latency is reported separately below).
  uint64_t latency_count = 0;
  uint64_t latency_p50_ns = 0;
  uint64_t latency_p99_ns = 0;
  uint64_t latency_max_ns = 0;
  // -- Analytics tenant (zero when analytics_clients == 0) -------------------
  uint64_t scan_issued = 0;
  uint64_t scan_ok = 0;
  uint64_t scan_rejected = 0;
  uint64_t scan_failed = 0;
  uint64_t scan_rows_matched = 0;
  // Order-independent fold of per-query ScanOutput fingerprints salted by
  // (client, seq) — the bit-identity witness across shard layouts.
  uint64_t scan_fingerprint = 0;
  uint64_t scan_chunk_bytes = 0;   // reader-requested bytes (footer + chunks)
  uint64_t scan_device_bytes = 0;  // LBA-rounded device traffic
  uint64_t scan_groups_skipped = 0;
  uint64_t scan_reconfigs = 0;     // queries that paid an ICAP load
  uint64_t scan_reconfig_p50_ns = 0;
  uint64_t scan_reconfig_max_ns = 0;
  uint64_t scan_latency_count = 0;
  uint64_t scan_latency_p50_ns = 0;
  uint64_t scan_latency_p99_ns = 0;
  uint64_t scan_latency_max_ns = 0;

  bool operator==(const OverloadResult&) const = default;
};

class OverloadCluster : public dpu::Cluster {
 public:
  explicit OverloadCluster(const OverloadClusterOptions& options);

  // Runs every client to completion and snapshots the result. One-shot.
  OverloadResult Run();

  // Analytics-side fault accounting (null when analytics_clients == 0).
  const sim::FaultInjector* scan_injector() const {
    return analytics_ ? analytics_->injector.get() : nullptr;
  }

 private:
  // Node 0: the Hyperion server, its DPU owned by the cluster node.
  struct ServerNode : Node {
    dpu::RpcResponse HandleLsm(uint16_t opcode, const Buffer& payload);
    std::unique_ptr<dpu::HyperionServices> services;
    // kLsmKv only: a zoned namespace added to the DPU's controller and the
    // LSM engine formatted onto it, driven on the server's node clock.
    std::unique_ptr<nvme::ZonedNamespace> zns;
    std::unique_ptr<storage::LsmEngine> lsm;
  };
  // The analytics tenant living on node 0 beside the KV server: Parquet
  // table on its own NVMe controller behind a small FPGA fabric, scan
  // kernels swapped by the slot scheduler. In spatial mode it serves from
  // its own endpoint + node clock; in shared mode its handler is registered
  // on the KV pipeline and advances the server clock (head-of-line arm).
  struct AnalyticsTenant {
    AnalyticsTenant(OverloadCluster* cluster);
    dpu::RpcResponse HandleScan(uint16_t opcode, const Buffer& payload);
    sim::Engine clock;         // private node clock (spatial mode)
    sim::Engine* exec;         // the clock scans actually advance
    std::unique_ptr<sim::FaultInjector> injector;
    std::unique_ptr<nvme::Controller> nvme;
    std::unique_ptr<fpga::Fabric> fabric;
    std::unique_ptr<fpga::SlotScheduler> scheduler;
    std::unique_ptr<format::NvmeParquetFile> table;
    uint64_t table_rows = 0;
    uint32_t table_groups = 0;
    std::unique_ptr<format::FpgaScanKernel> kernel;
    dpu::RpcServer rpc;        // spatial mode dispatch table
    dpu::ShardedRpcNode* endpoint = nullptr;  // spatial mode only
  };
  // Nodes 1..N: client-only nodes, each driving one LoadGen.
  struct ClientNode : Node {
    bool analytics = false;
    std::unique_ptr<LoadGen> gen;
    // Analytics accumulators, folded order-independently per completion.
    uint64_t scan_fingerprint = 0;
    uint64_t scan_rows_matched = 0;
    uint64_t scan_chunk_bytes = 0;
    uint64_t scan_device_bytes = 0;
    uint64_t scan_groups_skipped = 0;
    uint64_t scan_reconfigs = 0;
    sim::Histogram reconfig_latency;
  };

  // What each client kind issues; `client` is the issuing node.
  LoadGen::IssueFn KvRequests(ClientNode& client);
  LoadGen::IssueFn ScanRequests(ClientNode& client);

  OverloadClusterOptions options_;
  std::unique_ptr<AnalyticsTenant> analytics_;
};

}  // namespace hyperion::load

#endif  // HYPERION_SRC_LOAD_HARNESS_H_
