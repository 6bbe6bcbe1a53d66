#include "src/dpu/cluster.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/export.h"

namespace hyperion::dpu {

HyperionConfig NodeConfig(const ClusterBaseOptions& options) {
  HyperionConfig config;
  config.nvme_devices = 1;
  config.lbas_per_device = options.lbas_per_device;
  config.dram_bytes = options.dram_bytes;
  config.hbm_bytes = options.hbm_bytes;
  config.link_gbps = options.fabric.default_link_gbps;
  return config;
}

void FillLatency(const sim::Histogram& merged, uint64_t* count, uint64_t* p50, uint64_t* p99,
                 uint64_t* max) {
  *count = merged.count();
  *p50 = merged.P50();
  *p99 = merged.P99();
  *max = merged.max();
}

// -- Cluster ---------------------------------------------------------------------

Cluster::Cluster(const ClusterBaseOptions& options, uint32_t num_nodes)
    : num_nodes_(num_nodes), fabric_(options.fabric) {
  CHECK_GT(num_nodes_, 0u);
  const uint32_t shards =
      options.num_shards == 0 || options.num_shards > num_nodes_ ? num_nodes_ : options.num_shards;
  engine_ = std::make_unique<sim::ParallelEngine>(shards);
  nodes_.reserve(num_nodes_);
}

uint32_t Cluster::ShardOf(uint32_t node) const {
  // Contiguous blocks: halving the shard count merges neighbouring shards
  // without reordering the nodes inside them.
  return static_cast<uint32_t>(uint64_t{node} * num_shards() / num_nodes_);
}

Cluster::Node& Cluster::Lookup(uint32_t id) const {
  CHECK_LT(id, nodes_.size()) << "no node " << id;
  return *nodes_[id];
}

Cluster::Node& Cluster::Adopt(std::unique_ptr<Node> node, const HyperionConfig* config) {
  node->id = static_cast<uint32_t>(nodes_.size());
  CHECK_LT(node->id, num_nodes_);
  node->shard = ShardOf(node->id);
  RpcServer* server = nullptr;
  if (config != nullptr) {
    node->fabric.emplace(&node->clock, fabric_);
    node->dpu.emplace(&node->clock, &*node->fabric, *config);
    CHECK(node->dpu->Boot().ok());
    server = &node->dpu->rpc();
  }
  Node& adopted = *nodes_.emplace_back(std::move(node));
  adopted.endpoint = AddEndpoint(server, &adopted.clock);
  return adopted;
}

ShardedRpcNode* Cluster::AddEndpoint(RpcServer* server, sim::Engine* clock) {
  CHECK(!nodes_.empty());
  endpoints_.push_back(std::make_unique<ShardedRpcNode>(
      engine_.get(), nodes_.back()->shard, server, clock, fabric_, fabric_.default_link_gbps));
  return endpoints_.back().get();
}

obs::Tracer* Cluster::AddTracer(Node& node) {
  node.tracer = std::make_unique<obs::Tracer>(node.id);
  return node.tracer.get();
}

void Cluster::AddMetrics(obs::Subsystem subsystem, const sim::Counters* counters) {
  tenant_metrics_.emplace_back(subsystem, counters);
}

void Cluster::BeginRun() {
  CHECK(!ran_) << "a cluster runs once: construct a fresh one per run";
  CHECK_EQ(nodes_.size(), num_nodes_);
  ran_ = true;
}

sim::SimTime Cluster::StartTime(uint32_t clock_nodes) const {
  sim::SimTime start = 0;
  for (uint32_t id = 0; id < clock_nodes; ++id) {
    start = std::max(start, Lookup(id).clock.Now());
  }
  return start + 1000;
}

void Cluster::RunClosedLoop(const ClusterWorkload& workload, sim::SimTime start,
                            IssueFn issue) {
  workload_ = workload;
  issue_ = std::move(issue);
  loops_.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    ClientLoop& loop =
        loops_.emplace_back(workload.seed ^ (0x9e3779b97f4a7c15ULL * (node->id + 1)));
    loop.remaining.assign(workload.clients_per_node, workload.ops_per_client);
  }
  for (const auto& node : nodes_) {
    for (uint32_t client = 0; client < workload.clients_per_node; ++client) {
      if (loops_[node->id].remaining[client] == 0) {
        continue;
      }
      const sim::SimTime at =
          start + (uint64_t{node->id} * workload.clients_per_node + client) * 7;
      engine_->shard(node->shard).ScheduleAt(
          at, [this, id = node->id, client] { IssueOp(id, client); });
    }
  }
  engine_->Run();
}

void Cluster::IssueOp(uint32_t node, uint32_t client) {
  ClientLoop& loop = loops_[node];
  CHECK_GT(loop.remaining[client], 0u);
  --loop.remaining[client];
  const uint64_t key = loop.rng.Uniform(workload_.key_space);
  const bool write = loop.rng.Uniform(100) < workload_.write_pct;
  const sim::SimTime issued = engine_->shard(nodes_[node]->shard).Now();
  issue_(ClientOp{this, node, client, key, write, issued});
}

void Cluster::FinishOp(const ClientOp& op, bool ok) {
  ClientLoop& loop = loops_[op.node];
  const sim::SimTime now = engine_->shard(nodes_[op.node]->shard).Now();
  loop.latency.Record(now - op.issued);
  if (!ok) {
    ++loop.failed;
  } else if (op.write) {
    ++loop.ok_writes;
  } else {
    ++loop.ok_reads;
  }
  loop.last_completion = std::max(loop.last_completion, now);
  if (loop.remaining[op.client] > 0) {
    IssueOp(op.node, op.client);
  }
}

sim::SimTime Cluster::FoldClosedLoop(sim::SimTime start, sim::Histogram* latency) const {
  sim::SimTime makespan = 0;
  for (const ClientLoop& loop : loops_) {
    if (loop.last_completion > start) {
      makespan = std::max(makespan, loop.last_completion - start);
    }
    latency->Merge(loop.latency);
  }
  return makespan;
}

std::vector<obs::SpanRecord> Cluster::MergedTrace() const {
  std::vector<const obs::Tracer*> tracers;
  for (const auto& node : nodes_) {
    if (node->tracer != nullptr) {
      tracers.push_back(node->tracer.get());
    }
  }
  return obs::Tracer::Merged(tracers);
}

void Cluster::SnapshotMetrics(obs::MetricsRegistry* registry) const {
  for (const auto& endpoint : endpoints_) {
    registry->ImportCounters(obs::Subsystem::kRpc, endpoint->counters());
    if (const sim::AdmissionController* admission = endpoint->admission()) {
      registry->ImportCounters(obs::Subsystem::kRpc, admission->counters());
      registry->Record(obs::Subsystem::kRpc, "admission_depth_p99", admission->depth().P99());
    }
  }
  for (const auto& node : nodes_) {
    if (node->dpu) {
      registry->ImportCounters(obs::Subsystem::kRpc, node->dpu->rpc().counters());
      registry->ImportCounters(obs::Subsystem::kNvme, node->dpu->nvme().counters());
    }
  }
  for (const auto& [subsystem, counters] : tenant_metrics_) {
    registry->ImportCounters(subsystem, *counters);
  }
  obs::ImportParallelStats(registry, engine_->stats());
}

// -- KvCluster -------------------------------------------------------------------

KvCluster::KvCluster(const ClusterOptions& options)
    : Cluster(options, options.num_nodes), options_(options) {
  CHECK_GT(options_.workload.value_bytes, 0u);
  CHECK_GT(options_.workload.key_space, 0u);
  value_.resize(options_.workload.value_bytes);
  for (size_t i = 0; i < value_.size(); ++i) {
    value_[i] = static_cast<uint8_t>(i * 31 + 7);
  }

  const HyperionConfig config = NodeConfig(options_);
  std::vector<ShardedRpcNode*> partitions;
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    KvNode& node = AddDpuNode<KvNode>(config);
    node.services = HyperionServices::Install(&*node.dpu).value();
    if (options_.trace) {
      obs::Tracer* tracer = AddTracer(node);
      node.dpu->InstallTracer(tracer);
      node.endpoint->SetTracer(tracer);
    }
    partitions.push_back(node.endpoint);
  }
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    KvNode& node = this->node<KvNode>(id);
    node.kv = std::make_unique<ShardedKvClient>(node.endpoint, partitions);
  }
}

ClusterResult KvCluster::Run() {
  BeginRun();
  // Load every key directly into its owner's store (no virtual wire): the
  // measured phase then runs read-mostly traffic against a warm cluster.
  const ByteSpan value(value_.data(), value_.size());
  for (uint64_t key = 0; key < options_.workload.key_space; ++key) {
    const auto owner = static_cast<uint32_t>(KvPartitionOf(key, num_nodes()));
    CHECK(node<KvNode>(owner).services->kv().Put(key, value).ok());
  }
  const sim::SimTime start = StartTime(num_nodes());
  RunClosedLoop(options_.workload, start, [this, value](const ClientOp& op) {
    ShardedKvClient& kv = *node<KvNode>(op.node).kv;
    if (op.write) {
      kv.PutAsync(op.key, value, [op](Status status) { op.Done(status.ok()); });
    } else {
      kv.GetAsync(op.key, [op](Result<Buffer> result) { op.Done(result.ok()); });
    }
  });

  ClusterResult result;
  result.events_run = engine().stats().events_run;
  result.messages = engine().stats().messages;
  result.start_ns = start;
  sim::Histogram latency;
  result.makespan_ns = FoldClosedLoop(start, &latency);
  FillLatency(latency, &result.latency_count, &result.latency_p50_ns, &result.latency_p99_ns,
              &result.latency_max_ns);
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    const ClientLoop& loop = client_loop(id);
    const ClusterNodeResult& added = result.nodes.emplace_back(ClusterNodeResult{
        .node_clock_ns = node(id).clock.Now(),
        .rpcs_served = node(id).endpoint->counters().Get("rpc_async_served"),
        .ok_ops = loop.ok_writes + loop.ok_reads,
        .failed_ops = loop.failed});
    result.ok_ops += added.ok_ops;
    result.failed_ops += added.failed_ops;
  }
  return result;
}

}  // namespace hyperion::dpu
