// Sharded multi-DPU cluster simulation (PR 3): the one mechanism every
// cluster harness runs on, and the partitioned KV cluster built on it.
//
// dpu::Cluster owns what KvCluster, ReplicatedKvCluster, load::OverloadCluster
// and load::XdpCluster share: the sim::ParallelEngine with nodes mapped to
// shards in contiguous blocks; id-ordered node construction (a private cost
// clock and, on serving nodes, a booted Hyperion DPU on its own net::Fabric,
// in one allocation) whose endpoint registration order pins the logical
// source order that breaks cross-shard timestamp ties; the after-boot start
// time; the one-shot run; the closed-loop clients; SnapshotMetrics() and
// MergedTrace(). A harness derives from it and keeps only its tenant code:
// what a node installs, how its clients start, how its result folds.
//
// KvCluster is the paper's §3 picture — a rack of self-hosting DPUs serving
// a partitioned KV service. Every node is a full Hyperion DPU plus
// closed-loop clients on the node's shard; keys hash-partition across nodes
// by KvPartitionOf (each client is a ShardedKvClient), and an op owned by
// another node crosses shards as a serialized RPC frame. The result is
// bit-identical for any shard count (tests/cluster_test.cc), because nodes
// share no mutable state and cross-node messages merge in (time, source,
// seq) order.
// bench_cluster_scaling runs it for netkv.

#ifndef HYPERION_SRC_DPU_CLUSTER_H_
#define HYPERION_SRC_DPU_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/dpu/distributed.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/services.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/parallel.h"
#include "src/sim/stats.h"

namespace hyperion::dpu {

// Options every cluster harness shares.
struct ClusterBaseOptions {
  // 0 defaults to one shard per node (full spatial parallelism). Nodes map
  // to shards in contiguous blocks so the (time, source, seq) merge order
  // is independent of the shard count.
  uint32_t num_shards = 0;
  // Ignored: every shard runs on the caller's thread (sim/parallel.h). Kept
  // only because perfbench/src/workloads.cc still assigns it.
  bool use_threads = true;
  net::FabricParams fabric;  // wire model for cross-node frames
  // Trimmed per-node DPU. DRAM and HBM cost host memory per written 4 KiB
  // page and flash per written byte (each LBA up to its last non-zero
  // byte), so these sizes are kept for what they decide, not for
  // construction cost: ObjectStore::PickLocation places segments by tier
  // capacity, and the harness goldens pin the results of that placement.
  uint64_t lbas_per_device = 32768;
  uint64_t dram_bytes = 64ull << 20;
  uint64_t hbm_bytes = 16ull << 20;
};

// The per-node DPU of a cluster: one NVMe device with the trimmed
// capacities above, attached at the fabric's link rate.
HyperionConfig NodeConfig(const ClusterBaseOptions& options);

// Copies a merged latency histogram into a result's four latency fields.
void FillLatency(const sim::Histogram& merged, uint64_t* count, uint64_t* p50, uint64_t* p99,
                 uint64_t* max);

// The closed-loop client population (KvCluster, ReplicatedKvCluster).
struct ClusterWorkload {
  uint32_t clients_per_node = 8;
  uint32_t ops_per_client = 32;
  uint32_t value_bytes = 256;
  uint64_t key_space = 2048;
  uint32_t write_pct = 50;  // percent of ops that are puts (YCSB-A at 50)
  uint64_t seed = 21;
};

class Cluster {
 public:
  // Endpoints and scheduled events hold the cluster's address.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t num_shards() const { return engine_->num_shards(); }
  uint32_t ShardOf(uint32_t node) const;

  sim::ParallelEngine& engine() { return *engine_; }
  ShardedRpcNode& endpoint(uint32_t node) { return *Lookup(node).endpoint; }
  // Per-node tracer; null unless the harness traces that node.
  const obs::Tracer* tracer(uint32_t node) const { return Lookup(node).tracer.get(); }

  // Every node tracer's spans in the deterministic cross-node merge —
  // (begin, origin, id) order, the golden-trace oracle.
  std::vector<obs::SpanRecord> MergedTrace() const;

  // Imports (after Run()) every endpoint's counters and admission state,
  // every DPU's RPC server and NVMe counters, the tenant counters a harness
  // registered, and the parallel engine's tallies into `registry`.
  void SnapshotMetrics(obs::MetricsRegistry* registry) const;

 protected:
  // One simulated node: a private cost clock (never holds events) and, on
  // serving nodes, a Hyperion DPU on its own fabric, inline in one
  // allocation; harness node types derive from it to carry tenant state.
  // Nodes share no mutable state, which makes the shard layout unobservable.
  struct Node {
    Node() = default;
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
    virtual ~Node() = default;

    uint32_t id = 0;
    uint32_t shard = 0;
    sim::Engine clock;
    std::unique_ptr<obs::Tracer> tracer;  // origin = node id; null untraced
    std::optional<net::Fabric> fabric;
    std::optional<Hyperion> dpu;  // empty on client-only nodes
    ShardedRpcNode* endpoint = nullptr;
  };

  // One op of a closed-loop client. The key and the read/write draw come
  // from the issuing node's seeded RNG.
  struct ClientOp {
    // Records the op's latency and outcome on its node, then issues the
    // client's next op. Call exactly once, on the node's shard.
    void Done(bool ok) const { cluster->FinishOp(*this, ok); }

    Cluster* cluster;
    uint32_t node;
    uint32_t client;  // index among the node's clients
    uint64_t key;
    bool write;
    sim::SimTime issued;
  };
  using IssueFn = std::function<void(const ClientOp&)>;

  // A node's closed-loop clients: its RNG, the ops each client has left,
  // and the outcome tallies its result folds.
  struct ClientLoop {
    explicit ClientLoop(uint64_t seed) : rng(seed) {}
    Rng rng;
    std::vector<uint32_t> remaining;
    sim::Histogram latency;
    uint64_t ok_writes = 0;
    uint64_t ok_reads = 0;
    uint64_t failed = 0;
    sim::SimTime last_completion = 0;
  };

  Cluster(const ClusterBaseOptions& options, uint32_t num_nodes);
  ~Cluster() = default;

  // Builds the next node (ids follow construction order) as a T, a Node
  // subclass: a booted Hyperion DPU with `config`, served by a new endpoint.
  template <typename T = Node>
  T& AddDpuNode(const HyperionConfig& config) {
    return static_cast<T&>(Adopt(std::make_unique<T>(), &config));
  }
  // The next node as a client only: a clock and an endpoint with no server.
  template <typename T = Node>
  T& AddClientNode() {
    return static_cast<T&>(Adopt(std::make_unique<T>(), nullptr));
  }
  // A second endpoint on the newest node's shard, serving `server` on its
  // own `clock` (a tenant spatially multiplexed beside the node's DPU).
  ShardedRpcNode* AddEndpoint(RpcServer* server, sim::Engine* clock);
  // Gives `node` a tracer whose origin is its node id — a logical identity,
  // never the shard index — so MergedTrace() is layout-invariant.
  obs::Tracer* AddTracer(Node& node);
  // Tenant counters SnapshotMetrics imports; they must outlive the cluster.
  void AddMetrics(obs::Subsystem subsystem, const sim::Counters* counters);

  template <typename T = Node>
  T& node(uint32_t id) const {
    return static_cast<T&>(Lookup(id));
  }

  // Marks the one-shot run: construct a fresh cluster per run.
  void BeginRun();
  bool ran() const { return ran_; }
  // Clients start once the slowest of nodes [0, clock_nodes) has drained
  // boot and preload from its pipeline, so latency measures wire + service.
  // Layout-invariant: boot and preload never touch the shard engines.
  sim::SimTime StartTime(uint32_t clock_nodes) const;

  // Runs `workload.clients_per_node` closed-loop clients on every node to
  // quiescence. Each client keeps one op outstanding (the completion issues
  // the next), so offered load scales with the client count; client c of
  // node n starts at start + (n * clients_per_node + c) * 7 ns — distinct
  // timestamps need no tie-break, so the startup order is layout-invariant.
  void RunClosedLoop(const ClusterWorkload& workload, sim::SimTime start, IssueFn issue);
  const ClientLoop& client_loop(uint32_t node) const { return loops_[node]; }
  // Merges every node's client latency into `latency`; returns the makespan
  // (last completion past `start`).
  sim::SimTime FoldClosedLoop(sim::SimTime start, sim::Histogram* latency) const;

 private:
  Node& Lookup(uint32_t id) const;
  Node& Adopt(std::unique_ptr<Node> node, const HyperionConfig* config);
  void IssueOp(uint32_t node, uint32_t client);
  void FinishOp(const ClientOp& op, bool ok);

  uint32_t num_nodes_;
  net::FabricParams fabric_;
  std::unique_ptr<sim::ParallelEngine> engine_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Every endpoint in registration order; destroyed before the nodes whose
  // clocks and RPC servers they reference.
  std::vector<std::unique_ptr<ShardedRpcNode>> endpoints_;
  std::vector<std::pair<obs::Subsystem, const sim::Counters*>> tenant_metrics_;
  ClusterWorkload workload_;
  IssueFn issue_;
  std::vector<ClientLoop> loops_;
  bool ran_ = false;
};

// -- KvCluster -----------------------------------------------------------------

struct ClusterOptions : ClusterBaseOptions {
  uint32_t num_nodes = 4;
  ClusterWorkload workload;
  // Distributed tracing: every node gets an obs::Tracer whose origin is the
  // node id, wired into the node's DPU substrates and its shard endpoint.
  // MergedTrace() after Run() is bit-identical across shard layouts;
  // virtual time is unaffected either way (trace context rides frames as
  // unmodelled metadata).
  bool trace = false;
};

// Everything observable a run produces, in deterministic form: equality
// across two runs (or two shard layouts) means the traces matched.
struct ClusterNodeResult {
  sim::SimTime node_clock_ns = 0;  // the node pipeline's final virtual time
  uint64_t rpcs_served = 0;
  uint64_t ok_ops = 0;  // ops issued by this node's clients
  uint64_t failed_ops = 0;

  bool operator==(const ClusterNodeResult&) const = default;
};

struct ClusterResult {
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
  uint64_t events_run = 0;      // across all shard engines
  uint64_t messages = 0;        // ParallelEngine posts (layout-invariant)
  // Clients start after the slowest node finishes boot + preload (start_ns),
  // so the measured window excludes the ~2.8 s virtual boot sequence;
  // makespan_ns is last client completion minus start_ns.
  sim::SimTime start_ns = 0;
  sim::SimTime makespan_ns = 0;
  // Client-observed latency merged across nodes (Histogram::Merge).
  uint64_t latency_count = 0;
  uint64_t latency_p50_ns = 0;
  uint64_t latency_p99_ns = 0;
  uint64_t latency_max_ns = 0;
  std::vector<ClusterNodeResult> nodes;

  bool operator==(const ClusterResult&) const = default;
};

class KvCluster : public Cluster {
 public:
  explicit KvCluster(const ClusterOptions& options);

  // Runs the closed-loop workload to quiescence and snapshots the result.
  // One-shot: construct a fresh cluster per run.
  ClusterResult Run();

 private:
  struct KvNode : Node {
    std::unique_ptr<HyperionServices> services;
    std::unique_ptr<ShardedKvClient> kv;
  };

  ClusterOptions options_;
  Bytes value_;  // shared value pattern for puts
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_CLUSTER_H_
