// Experiments E11 + E17 — sharded parallel simulation scaling (PR 3/PR 9).
//
// Measures the ParallelEngine on the cluster workloads:
//
//   NetKvWeakScaling    one KV DPU node per shard, fixed per-node load,
//                       out to 64 shards (PR 9 extends the curve past 8).
//                       sim_events_per_s / sim_ops_per_s grow with the
//                       cluster because nodes serve in parallel *virtual*
//                       time; wall_events_per_s shows what the host pays
//                       per simulated event as shards are added.
//   NetKvStrongScaling  fixed 8-node cluster spread over 1..8 shards —
//                       the event trace is bit-identical by construction,
//                       so only wall_events_per_s moves.
//   NetKvSpeedup        4 shards vs 1 shard in one iteration; the headline
//                       speedup counters (historical BENCH_PR3.json, kept
//                       at commit 52aa3f5).
//   GraphBsp            partitioned BSP rank propagation where each
//                       superstep's cross-partition contributions travel
//                       as one batched ParallelEngine::Post per edge-cut.
//   RepKvWeakScaling    E17: the PR 9 replicated cluster (Corfu chain
//                       replication, R=3 groups) at fixed per-node load,
//                       from 3 nodes out to the 64-node / 64-shard point.
//                       Every row CHECKs failed_ops == 0 and a clean
//                       acked-write audit before reporting.
//   RepKvKillMidBench   E17 headline: a replica (the head — leader and
//                       sequencer of its group) is killed mid-bench; the
//                       row CHECKs that exactly one node died, failover
//                       ran, and the post-run audit finds every
//                       acknowledged write on every surviving replica.
//
// Every shard runs on the calling thread, so wall_events_per_s measures
// what sharding costs the host (barriers and horizon computation), never a
// parallel gain; see EXPERIMENTS.md for how to read the two axes.
// Generate the JSON with
//   bench_cluster_scaling --benchmark_format=json > BENCH_PR9.json

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/dpu/cluster.h"
#include "src/dpu/replication.h"
#include "src/sim/parallel.h"
#include "src/sim/time.h"

// Global allocation counter so the ChannelSend rows can report heap
// allocations per message: the PR-7 fast path relocates small payload
// closures through EventFn inline storage into pooled event entries, so
// steady-state sends must show allocs_per_msg == 0.
std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hyperion;  // NOLINT

dpu::ClusterOptions NetKvOptions(uint32_t nodes, uint32_t shards) {
  dpu::ClusterOptions options;
  options.num_nodes = nodes;
  options.num_shards = shards;
  options.workload.clients_per_node = 4;
  options.workload.ops_per_client = 16;
  options.workload.value_bytes = 256;
  options.workload.key_space = 512;
  options.workload.write_pct = 50;  // YCSB-A
  return options;
}

struct NetKvRates {
  double sim_events_per_s = 0;
  double sim_ops_per_s = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
};

NetKvRates RunNetKv(const dpu::ClusterOptions& options) {
  dpu::KvCluster cluster(options);  // boot + preload excluded from wall time
  const auto wall_start = std::chrono::steady_clock::now();
  const dpu::ClusterResult result = cluster.Run();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
  CHECK_EQ(result.failed_ops, 0u);
  const double sim_seconds = sim::ToSeconds(result.makespan_ns);
  NetKvRates rates;
  rates.sim_events_per_s = static_cast<double>(result.events_run) / sim_seconds;
  rates.sim_ops_per_s = static_cast<double>(result.ok_ops) / sim_seconds;
  rates.wall_seconds = wall.count();
  rates.events = result.events_run;
  return rates;
}

void ReportNetKv(benchmark::State& state, const std::vector<NetKvRates>& runs) {
  double sim_events = 0;
  double sim_ops = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  for (const NetKvRates& run : runs) {
    sim_events += run.sim_events_per_s;
    sim_ops += run.sim_ops_per_s;
    wall_seconds += run.wall_seconds;
    events += run.events;
  }
  const auto n = static_cast<double>(runs.size());
  state.counters["sim_events_per_s"] = sim_events / n;
  state.counters["sim_ops_per_s"] = sim_ops / n;
  state.counters["wall_events_per_s"] = static_cast<double>(events) / wall_seconds;
}

// Weak scaling: the cluster grows with the shard count (one node per
// shard) while per-node offered load stays fixed.
void BM_NetKvWeakScaling(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  std::vector<NetKvRates> runs;
  for (auto _ : state) {
    runs.push_back(RunNetKv(NetKvOptions(shards, shards)));
  }
  ReportNetKv(state, runs);
  state.SetLabel("netkv/nodes:" + std::to_string(shards) +
                 "/shards:" + std::to_string(shards));
}

// Strong scaling: a fixed 8-node cluster over 1..8 shards. Determinism
// makes the virtual-time numbers identical across rows; the wall rate
// isolates the engine's sharding overhead (barriers and horizons).
void BM_NetKvStrongScaling(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  std::vector<NetKvRates> runs;
  for (auto _ : state) {
    runs.push_back(RunNetKv(NetKvOptions(8, shards)));
  }
  ReportNetKv(state, runs);
  state.SetLabel("netkv/nodes:8/shards:" + std::to_string(shards));
}

// Headline acceptance row: 4-shard vs 1-shard netkv in one iteration.
// speedup_sim_events_per_s is the modelled-throughput gain of the 4-node
// sharded cluster over the single node (>= 2x expected); speedup_wall is
// the ratio of host-side event rates, which with every shard on one thread
// reflects per-event host cost, not parallelism.
void BM_NetKvSpeedup(benchmark::State& state) {
  double base_sim = 0;
  double wide_sim = 0;
  double base_wall = 0;
  double wide_wall = 0;
  for (auto _ : state) {
    const NetKvRates base = RunNetKv(NetKvOptions(1, 1));
    const NetKvRates wide = RunNetKv(NetKvOptions(4, 4));
    base_sim += base.sim_events_per_s;
    wide_sim += wide.sim_events_per_s;
    base_wall += static_cast<double>(base.events) / base.wall_seconds;
    wide_wall += static_cast<double>(wide.events) / wide.wall_seconds;
  }
  state.counters["speedup_sim_events_per_s"] = wide_sim / base_sim;
  state.counters["speedup_wall_events_per_s"] = wide_wall / base_wall;
  state.SetLabel("netkv 4 shards vs 1");
}

// -- E17: replicated cluster scaling + kill-mid-bench (PR 9) ----------------

// Fixed per-node load; the cluster grows by adding replica groups. Values
// carry the 8-byte audit tag, so value_bytes stays >= 8.
dpu::RepClusterOptions RepKvOptions(uint32_t groups, uint32_t replicas, uint32_t shards) {
  dpu::RepClusterOptions options;
  options.groups = groups;
  options.replicas_per_group = replicas;
  options.num_shards = shards;
  options.workload.clients_per_node = 2;
  options.workload.ops_per_client = 8;
  options.workload.value_bytes = 32;
  options.workload.key_space = 64 * groups;  // keys spread across all groups
  options.workload.write_pct = 50;  // YCSB-A
  return options;
}

struct RepKvRates {
  double sim_events_per_s = 0;
  double sim_ops_per_s = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  uint64_t failovers = 0;
  uint64_t seals = 0;
  uint64_t killed = 0;
  uint64_t acked_audited = 0;
};

RepKvRates RunRepKv(const dpu::RepClusterOptions& options) {
  dpu::ReplicatedKvCluster cluster(options);  // boot + preload off the clock
  const auto wall_start = std::chrono::steady_clock::now();
  const dpu::RepClusterResult result = cluster.Run();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
  CHECK_EQ(result.failed_ops, 0u);
  const dpu::RepAudit audit = cluster.AuditAckedWrites();
  CHECK(audit.ok());  // zero acked-write loss is part of the row's contract
  const double sim_seconds = sim::ToSeconds(result.makespan_ns);
  RepKvRates rates;
  rates.sim_events_per_s = static_cast<double>(result.events_run) / sim_seconds;
  rates.sim_ops_per_s = static_cast<double>(result.ok_puts + result.ok_gets) / sim_seconds;
  rates.wall_seconds = wall.count();
  rates.events = result.events_run;
  rates.failovers = result.failovers;
  rates.seals = result.seals;
  rates.killed = result.killed_nodes;
  rates.acked_audited = audit.acked;
  return rates;
}

void ReportRepKv(benchmark::State& state, const std::vector<RepKvRates>& runs) {
  double sim_events = 0;
  double sim_ops = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  uint64_t acked = 0;
  for (const RepKvRates& run : runs) {
    sim_events += run.sim_events_per_s;
    sim_ops += run.sim_ops_per_s;
    wall_seconds += run.wall_seconds;
    events += run.events;
    acked += run.acked_audited;
  }
  const auto n = static_cast<double>(runs.size());
  state.counters["sim_events_per_s"] = sim_events / n;
  state.counters["sim_ops_per_s"] = sim_ops / n;
  state.counters["wall_events_per_s"] = static_cast<double>(events) / wall_seconds;
  state.counters["acked_writes_audited"] = static_cast<double>(acked) / n;
}

// Weak scaling over replica groups at R=3 (nodes = 3 * groups), plus the
// 64-node / 64-shard point registered as groups=32 x R=2.
void BM_RepKvWeakScaling(benchmark::State& state) {
  const auto groups = static_cast<uint32_t>(state.range(0));
  const auto replicas = static_cast<uint32_t>(state.range(1));
  const uint32_t nodes = groups * replicas;
  std::vector<RepKvRates> runs;
  for (auto _ : state) {
    runs.push_back(RunRepKv(RepKvOptions(groups, replicas, nodes)));
  }
  ReportRepKv(state, runs);
  state.SetLabel("repkv/groups:" + std::to_string(groups) + "/R:" +
                 std::to_string(replicas) + "/nodes:" + std::to_string(nodes) +
                 "/shards:" + std::to_string(nodes));
}

// The PR 9 headline: node 0 (head of group 0 — its leader and sequencer)
// dies mid-bench; clients seal the epoch, repair the tail, adopt it at the
// new head, and finish the workload. RunRepKv CHECKs the audit, so a lost
// acknowledged write aborts the bench rather than skewing a counter.
void BM_RepKvKillMidBench(benchmark::State& state) {
  std::vector<RepKvRates> runs;
  for (auto _ : state) {
    dpu::RepClusterOptions options = RepKvOptions(2, 3, 6);
    options.kill_node = 0;
    options.kill_after_ns = 60 * sim::kMicrosecond;
    RepKvRates rates = RunRepKv(options);
    CHECK_EQ(rates.killed, 1u);
    CHECK_GT(rates.failovers, 0u);
    runs.push_back(rates);
  }
  ReportRepKv(state, runs);
  state.counters["failovers"] = static_cast<double>(runs.back().failovers);
  state.counters["seals"] = static_cast<double>(runs.back().seals);
  state.SetLabel("repkv/groups:2/R:3/kill:head@60us");
}

// -- Graph analytics: BSP rank propagation over ParallelEngine::Post --------

constexpr uint32_t kPartitions = 4;
constexpr uint32_t kVertices = 256;
constexpr uint32_t kOutDegree = 4;
constexpr uint32_t kSupersteps = 16;

struct SyntheticGraph {
  // adjacency[v] = out-neighbours; vertex v lives on partition v % kPartitions.
  std::vector<std::vector<uint32_t>> adjacency;
  uint64_t edges = 0;
};

SyntheticGraph BuildGraph() {
  SyntheticGraph graph;
  graph.adjacency.resize(kVertices);
  Rng rng(7);
  for (uint32_t v = 0; v < kVertices; ++v) {
    graph.adjacency[v].push_back((v + 1) % kVertices);  // ring keeps it connected
    for (uint32_t e = 1; e < kOutDegree; ++e) {
      graph.adjacency[v].push_back(static_cast<uint32_t>(rng.Uniform(kVertices)));
    }
    graph.edges += kOutDegree;
  }
  return graph;
}

double RunGraphBsp(const SyntheticGraph& graph, uint32_t shards, uint64_t* messages) {
  using Contributions = std::vector<std::pair<uint32_t, double>>;
  sim::ParallelEngine engine(shards);
  const sim::Duration step = 10 * engine.lookahead();

  struct Partition {
    std::vector<uint32_t> vertices;
    std::vector<double> rank;    // parallel to `vertices`
    std::vector<double> inbox;   // accumulated contributions for this step
    uint32_t source = 0;
    uint32_t shard = 0;
  };
  std::vector<Partition> parts(kPartitions);
  std::vector<uint32_t> local_index(kVertices);
  for (uint32_t v = 0; v < kVertices; ++v) {
    Partition& part = parts[v % kPartitions];
    local_index[v] = static_cast<uint32_t>(part.vertices.size());
    part.vertices.push_back(v);
  }
  for (uint32_t p = 0; p < kPartitions; ++p) {
    parts[p].shard = p * shards / kPartitions;
    parts[p].source = engine.AddSource(parts[p].shard);
    parts[p].rank.assign(parts[p].vertices.size(), 1.0 / kVertices);
    parts[p].inbox.assign(parts[p].vertices.size(), 0.0);
  }
  // Superstep s on partition p: fold the inbox into ranks, then ship this
  // step's contributions to each partition q as one batched message;
  // lookahead delays land them before step s + 1.
  for (uint32_t s = 0; s < kSupersteps; ++s) {
    const sim::SimTime at = 1000 + uint64_t{s} * step;
    for (uint32_t p = 0; p < kPartitions; ++p) {
      Partition* part = &parts[p];
      engine.shard(part->shard).ScheduleAt(at, [part, &parts, &graph, &local_index, &engine, s,
                                                at] {
        if (s > 0) {
          for (size_t i = 0; i < part->rank.size(); ++i) {
            part->rank[i] = 0.15 / kVertices + 0.85 * part->inbox[i];
            part->inbox[i] = 0.0;
          }
        }
        std::vector<Contributions> out(kPartitions);
        for (size_t i = 0; i < part->vertices.size(); ++i) {
          const uint32_t v = part->vertices[i];
          const double share = part->rank[i] / static_cast<double>(graph.adjacency[v].size());
          for (const uint32_t dst : graph.adjacency[v]) {
            out[dst % kPartitions].push_back({dst, share});
          }
        }
        for (uint32_t q = 0; q < kPartitions; ++q) {
          Partition* dst = &parts[q];
          engine.Post(part->source, dst->shard, at + engine.lookahead(),
                      [dst, &local_index, batch = std::move(out[q])] {
                        for (const auto& [vertex, value] : batch) {
                          dst->inbox[local_index[vertex]] += value;
                        }
                      });
        }
      });
    }
  }
  engine.Run();
  *messages = engine.stats().messages;
  double rank_sum = 0;
  for (const Partition& part : parts) {
    for (const double rank : part.rank) {
      rank_sum += rank;
    }
  }
  return rank_sum;
}

void BM_GraphBsp(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  const SyntheticGraph graph = BuildGraph();
  uint64_t edges = 0;
  uint64_t messages = 0;
  double rank_sum = 0;
  for (auto _ : state) {
    rank_sum = RunGraphBsp(graph, shards, &messages);
    edges += graph.edges * kSupersteps;
  }
  state.counters["wall_edges_per_s"] =
      benchmark::Counter(static_cast<double>(edges), benchmark::Counter::kIsRate);
  state.counters["messages"] = static_cast<double>(messages);
  // Layout-invariant check value: identical for every shard count.
  state.counters["rank_sum_ppm"] = rank_sum * 1e6;
  state.SetLabel("graph/partitions:4/shards:" + std::to_string(shards));
}

// -- Cross-shard send allocation accounting ---------------------------------
//
// Posts from a source on shard 0 to shard 1, driven in batches. The
// `inline` row is the shipped fast path: a 16-byte payload's send closure
// fits EventFn inline storage and relocates into the destination engine's
// pooled entry — zero heap allocations per message in steady state. The
// `boxed` row carries a payload too large for inline storage, so every
// send boxes its closure: one allocation per message.

struct InlinePayload {
  uint64_t a = 0;
  uint64_t b = 0;
};
struct BoxedPayload {
  std::array<uint64_t, 32> words{};  // 256 B > EventFn::kInlineBytes
};

template <typename Payload>
void ChannelSendLoop(benchmark::State& state) {
  sim::ParallelEngine engine(2);
  const uint32_t src = engine.AddSource(0);
  uint64_t delivered = 0;

  constexpr uint64_t kBatch = 4096;
  const sim::Duration la = engine.lookahead();
  sim::SimTime cursor = 1000;
  auto run_batch = [&] {
    engine.shard(0).ScheduleAt(cursor, [&engine, &delivered, src, la] {
      const sim::SimTime at = engine.shard(0).Now() + la;
      for (uint64_t i = 0; i < kBatch; ++i) {
        engine.Post(src, 1, at + i, [&delivered, payload = Payload{}] {
          static_cast<void>(payload);
          ++delivered;
        });
      }
    });
    engine.Run();
    // At quiescence the receiver shard has run ahead of the idle sender;
    // restart past both clocks so the next batch's sends are in every
    // shard's future.
    cursor = std::max(engine.shard(0).Now(), engine.shard(1).Now()) + 10 * la;
  };
  run_batch();  // warm up the event pools

  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  uint64_t batches = 0;
  for (auto _ : state) {
    run_batch();
    ++batches;
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  const uint64_t messages = batches * kBatch;
  CHECK_EQ(delivered, (batches + 1) * kBatch);
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["allocs_per_msg"] =
      messages == 0 ? 0 : static_cast<double>(allocs) / static_cast<double>(messages);
}

void BM_ChannelSendInline(benchmark::State& state) { ChannelSendLoop<InlinePayload>(state); }
void BM_ChannelSendBoxed(benchmark::State& state) { ChannelSendLoop<BoxedPayload>(state); }

void RegisterAll() {
  // Weak scaling out to 64 shards; the big rows run once — their
  // virtual-time counters are deterministic, and the iteration count is
  // part of the row name the committed baselines are matched by.
  for (int64_t shards : {1, 2, 4, 8, 16, 64}) {
    benchmark::RegisterBenchmark(
        ("E11/NetKvWeakScaling/shards:" + std::to_string(shards)).c_str(), BM_NetKvWeakScaling)
        ->Args({shards})
        ->Iterations(shards > 8 ? 1 : 3)
        ->Unit(benchmark::kMillisecond);
  }
  for (int64_t shards : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark(
        ("E11/NetKvStrongScaling/shards:" + std::to_string(shards)).c_str(),
        BM_NetKvStrongScaling)
        ->Args({shards})
        ->Iterations(3)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("E11/NetKvSpeedup/4v1", BM_NetKvSpeedup)
      ->Iterations(3)
      ->Unit(benchmark::kMillisecond);
  // E17 weak-scaling curve: R=3 groups from 3 to 24 nodes, then the
  // 64-node / 64-shard point as 32 groups x R=2.
  for (int64_t groups : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark(
        ("E17/RepKvWeakScaling/nodes:" + std::to_string(3 * groups)).c_str(),
        BM_RepKvWeakScaling)
        ->Args({groups, 3})
        ->Iterations(groups > 4 ? 1 : 2)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("E17/RepKvWeakScaling/nodes:64", BM_RepKvWeakScaling)
      ->Args({32, 2})
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("E17/RepKvKillMidBench/nodes:6", BM_RepKvKillMidBench)
      ->Iterations(2)
      ->Unit(benchmark::kMillisecond);
  for (int64_t shards : {1, 2, 4}) {
    benchmark::RegisterBenchmark(("E11/GraphBsp/shards:" + std::to_string(shards)).c_str(),
                                 BM_GraphBsp)
        ->Args({shards})
        ->Iterations(20)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("E11/ChannelSend/inline", BM_ChannelSendInline)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("E11/ChannelSend/boxed", BM_ChannelSendBoxed)
      ->Unit(benchmark::kMillisecond);
}

const int kRegistered = (RegisterAll(), 0);

}  // namespace
