#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>

#include "src/common/check.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/services.h"
#include "src/net/fabric.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/sim/engine.h"

namespace perfbench {

namespace dpu = hyperion::dpu;
namespace load = hyperion::load;
namespace obs = hyperion::obs;
namespace sim = hyperion::sim;

namespace {

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

class Stopwatch {
 public:
  // Wall and process CPU seconds since construction or the previous Lap().
  Timing Lap() {
    const auto wall = std::chrono::steady_clock::now();
    const double cpu = ProcessCpuSeconds();
    const Timing split{.wall_s = std::chrono::duration<double>(wall - wall_).count(),
                       .cpu_s = cpu - cpu_};
    wall_ = wall;
    cpu_ = cpu;
    return split;
  }

 private:
  std::chrono::steady_clock::time_point wall_ = std::chrono::steady_clock::now();
  double cpu_ = ProcessCpuSeconds();
};

// splitmix64: spreads consecutive seeds over the whole word.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PerSimSecond(uint64_t count, sim::SimTime window_ns) {
  return Ratio(static_cast<double>(count) * 1e9, static_cast<double>(window_ns));
}

void AddLatency(uint64_t count, uint64_t p50_ns, uint64_t p99_ns, Metrics* out) {
  (*out)["lat.samples"] = static_cast<double>(count);
  (*out)["lat_p50_us"] = static_cast<double>(p50_ns) / 1e3;
  (*out)["lat_p99_us"] = static_cast<double>(p99_ns) / 1e3;
}

void AddEngineStats(const sim::ParallelEngineStats& stats, Metrics* out) {
  (*out)["sim.events"] = static_cast<double>(stats.events_run);
  (*out)["sim.epochs"] = static_cast<double>(stats.epochs);
  (*out)["sim.events_per_epoch"] =
      Ratio(static_cast<double>(stats.events_run), static_cast<double>(stats.epochs));
  (*out)["sim.windows_skipped_pct"] =
      100.0 * Ratio(static_cast<double>(stats.windows_skipped),
                    static_cast<double>(stats.windows_run + stats.windows_skipped));
  (*out)["sim.cross_shard_msgs"] = static_cast<double>(stats.cross_shard_messages);
  (*out)["sim.max_outbox"] = static_cast<double>(stats.max_outbox);
}

// rpc.* / nvme.* from a harness's SnapshotMetrics registry, plus the
// parallel engine's tallies it imports.
void AddRegistry(const obs::MetricsRegistry& registry, Metrics* out) {
  const auto counter = [&](obs::Subsystem subsystem, const char* name) {
    return static_cast<double>(registry.CounterValue(subsystem, name));
  };
  const double served = counter(obs::Subsystem::kRpc, "rpc_async_served");
  (*out)["rpc.calls"] = counter(obs::Subsystem::kRpc, "rpc_async_calls");
  (*out)["rpc.served"] = served;
  (*out)["rpc.queued_us_per_served"] =
      Ratio(counter(obs::Subsystem::kRpc, "rpc_async_queued_ns") / 1e3, served);
  (*out)["rpc.shed"] = counter(obs::Subsystem::kRpc, "rpc_shed_queue") +
                       counter(obs::Subsystem::kRpc, "rpc_shed_deadline");
  const sim::Histogram* depth = registry.FindHistogram(obs::Subsystem::kRpc, "admission_depth_p99");
  (*out)["rpc.admission_depth_p99"] = depth != nullptr ? static_cast<double>(depth->max()) : 0.0;
  (*out)["nvme.reads"] = counter(obs::Subsystem::kNvme, "nvme_reads");
  (*out)["nvme.writes"] = counter(obs::Subsystem::kNvme, "nvme_writes");
  (*out)["nvme.read_kb"] = counter(obs::Subsystem::kNvme, "nvme_read_bytes") / 1024.0;
  (*out)["nvme.write_kb"] = counter(obs::Subsystem::kNvme, "nvme_write_bytes") / 1024.0;

  sim::ParallelEngineStats stats;
  stats.epochs = registry.CounterValue(obs::Subsystem::kEngine, "epochs");
  stats.events_run = registry.CounterValue(obs::Subsystem::kEngine, "events_run");
  stats.cross_shard_messages =
      registry.CounterValue(obs::Subsystem::kEngine, "cross_shard_messages");
  stats.max_outbox = registry.CounterValue(obs::Subsystem::kEngine, "max_outbox");
  stats.windows_run = registry.CounterValue(obs::Subsystem::kEngine, "windows_run");
  stats.windows_skipped = registry.CounterValue(obs::Subsystem::kEngine, "windows_skipped");
  AddEngineStats(stats, out);
}

// -- Workload shapes ----------------------------------------------------------
// Each function here is the one place a workload's size lives; README.md says why
// each was chosen.

dpu::ClusterOptions NetKvOptions(uint64_t seed, const Layout& layout) {
  dpu::ClusterOptions options;
  options.num_nodes = 8;
  options.num_shards = layout.shards;
  options.use_threads = layout.threads;
  options.trace = layout.trace;
  options.workload.clients_per_node = 4;
  options.workload.ops_per_client = 1024;
  options.workload.value_bytes = 256;
  options.workload.write_pct = 50;
  options.workload.seed = seed;
  return options;
}

dpu::RepClusterOptions RepKvOptions(uint64_t seed, const Layout& layout) {
  dpu::RepClusterOptions options;
  options.groups = 4;
  options.replicas_per_group = 3;
  options.num_shards = layout.shards;
  options.use_threads = layout.threads;
  options.workload.clients_per_node = 2;
  options.workload.ops_per_client = 512;
  options.workload.value_bytes = 256;
  options.workload.write_pct = 50;
  options.workload.seed = seed;
  return options;
}

// OverloadCluster draws each op from (client, seq) alone, so the seed moves
// the arrival process instead: both interarrivals within +-1%.
load::OverloadClusterOptions LsmScanOptions(uint64_t seed, const Layout& layout) {
  const uint64_t mixed = Mix(seed);
  load::OverloadClusterOptions options;
  options.workload = load::OverloadWorkload::kLsmKv;
  options.num_shards = layout.shards;
  options.use_threads = layout.threads;
  options.num_clients = 3;
  options.requests_per_client = 32768;
  options.interarrival = 49500 + static_cast<sim::Duration>(mixed % 1001);
  options.kv_write_pct = 4;
  options.policy.enabled = true;
  options.analytics_clients = 2;
  options.scan_requests_per_client = 80;
  options.scan_interarrival =
      19800 * sim::kMicrosecond + static_cast<sim::Duration>((mixed >> 20) % 400001);
  options.analytics_spatial = true;
  return options;
}

load::XdpClusterOptions XdpIngressOptions(uint64_t seed, const Layout& layout) {
  load::XdpClusterOptions options;
  load::XdpOptions& xdp = options.xdp;
  xdp.trace.benign_flows = 1u << 14;
  xdp.trace.hot_flows = xdp.trace.benign_flows / 16;
  xdp.trace.attacker_ips = 64;
  xdp.trace.attack_packets_per_ip = 8;
  xdp.trace.steady_packets = 1u << 20;
  xdp.trace.frame_bytes = 1024;  // 40.9 ns of wire per frame at 200 Gb/s
  xdp.trace.ramp_interarrival = 4 * sim::kMicrosecond;
  xdp.trace.seed = seed;
  xdp.front_entries = xdp.trace.hot_flows;
  xdp.flow_buckets = xdp.trace.benign_flows / 64;
  xdp.lb_resident = xdp.trace.benign_flows;
  xdp.lb_spill_buckets = 256;
  xdp.codegen.mem_ports = 2;
  xdp.codegen.helper_cycles = 4;
  options.num_backends = 3;
  options.num_shards = layout.shards;
  options.use_threads = layout.threads;
  options.hbm_bytes = 64ull << 20;
  return options;
}

// -- Adapters: one harness call each ------------------------------------------

Execution RunNetKv(uint64_t seed, const Layout& layout) {
  Execution exec;
  Stopwatch watch;
  dpu::KvCluster cluster(NetKvOptions(seed, layout));
  exec.setup = watch.Lap();
  const dpu::ClusterResult result = cluster.Run();
  exec.run = watch.Lap();

  exec.attempted = result.ok_ops + result.failed_ops;
  exec.failed = result.failed_ops;
  AddLatency(result.latency_count, result.latency_p50_ns, result.latency_p99_ns, &exec.sim);
  exec.sim["goodput_per_sim_s"] = PerSimSecond(result.ok_ops, result.makespan_ns);
  obs::MetricsRegistry registry;
  cluster.SnapshotMetrics(&registry);
  AddRegistry(registry, &exec.sim);
  AddCriticalPathShares(cluster.MergedTrace(), &exec.sim);
  exec.result = result;
  return exec;
}

Execution RunRepKv(uint64_t seed, const Layout& layout) {
  Execution exec;
  Stopwatch watch;
  dpu::ReplicatedKvCluster cluster(RepKvOptions(seed, layout));
  exec.setup = watch.Lap();
  const dpu::RepClusterResult result = cluster.Run();
  exec.run = watch.Lap();
  exec.audit = cluster.AuditAckedWrites();
  exec.wall["rep.audit_s"] = watch.Lap().wall_s;

  const uint64_t ok = result.ok_puts + result.ok_gets;
  exec.attempted = ok + result.failed_ops;
  exec.failed = result.failed_ops;
  AddLatency(result.latency_count, result.latency_p50_ns, result.latency_p99_ns, &exec.sim);
  exec.sim["goodput_per_sim_s"] = PerSimSecond(ok, result.makespan_ns);
  AddEngineStats(cluster.engine().stats(), &exec.sim);
  exec.sim["rep.seals"] = static_cast<double>(result.seals);
  exec.sim["rep.retries"] = static_cast<double>(result.retries);
  exec.sim["rep.stale_epoch"] = static_cast<double>(result.stale_epoch);
  exec.sim["rep.acked_audited"] = static_cast<double>(exec.audit.acked);
  exec.result = result;
  return exec;
}

Execution RunLsmScan(uint64_t seed, const Layout& layout) {
  const load::OverloadClusterOptions options = LsmScanOptions(seed, layout);
  Execution exec;
  Stopwatch watch;
  load::OverloadCluster cluster(options);
  exec.setup = watch.Lap();
  const load::OverloadResult result = cluster.Run();
  exec.run = watch.Lap();

  exec.attempted = result.issued + result.scan_issued;
  exec.failed = result.failed + result.rejected + result.deadline_missed + result.scan_failed +
                result.scan_rejected;
  AddLatency(result.latency_count, result.latency_p50_ns, result.latency_p99_ns, &exec.sim);
  exec.sim["goodput_per_sim_s"] = PerSimSecond(result.ok, result.makespan_ns);
  obs::MetricsRegistry registry;
  cluster.SnapshotMetrics(&registry);
  AddRegistry(registry, &exec.sim);

  const double queries = static_cast<double>(result.scan_ok);
  const uint64_t groups =
      (options.scan_table_rows + options.scan_rows_per_group - 1) / options.scan_rows_per_group;
  exec.sim["scan.queries"] = queries;
  exec.sim["scan_p50_ms"] = static_cast<double>(result.scan_latency_p50_ns) / 1e6;
  exec.sim["scan_device_kb_per_query"] =
      Ratio(static_cast<double>(result.scan_device_bytes) / 1024.0, queries);
  exec.sim["scan.chunk_kb"] = static_cast<double>(result.scan_chunk_bytes) / 1024.0;
  exec.sim["scan.device_kb"] = static_cast<double>(result.scan_device_bytes) / 1024.0;
  exec.sim["scan.groups_skipped_pct"] =
      100.0 * Ratio(static_cast<double>(result.scan_groups_skipped),
                    queries * static_cast<double>(groups));
  exec.sim["fpga.reconfigs"] = static_cast<double>(result.scan_reconfigs);
  exec.sim["fpga.reconfig_p50_ms"] = static_cast<double>(result.scan_reconfig_p50_ns) / 1e6;
  exec.result = result;
  return exec;
}

Execution RunXdpIngress(uint64_t seed, const Layout& layout) {
  Execution exec;
  Stopwatch watch;
  load::XdpCluster cluster(XdpIngressOptions(seed, layout));
  exec.setup = watch.Lap();
  // The ingress tracer is on by default; the timed layout turns it off.
  cluster.ingress_tracer().set_enabled(layout.trace);
  const load::XdpClusterResult result = cluster.Run();
  exec.run = watch.Lap();

  const load::XdpStats& xdp = result.xdp;
  exec.attempted = xdp.rx_frames + result.spray_issued;
  exec.failed = xdp.rx_overflow + xdp.slow_shed + result.spray_failed + result.spray_rejected;
  exec.sim["goodput_per_sim_s"] = xdp.SteadyMpps() * 1e6;
  // Packet latency: each batch's first-frame arrival to its service
  // completion, from the ingress tracer's per-batch root spans.
  const std::vector<obs::SpanRecord>& spans = cluster.ingress_tracer().spans();
  if (!spans.empty()) {
    std::vector<uint64_t> batch_ns;
    for (const obs::SpanRecord& span : spans) {
      if (span.parent == 0 && span.name == "xdp_batch") {
        batch_ns.push_back(span.duration());
      }
    }
    AddLatency(batch_ns.size(), ExactPercentile(batch_ns, 0.50), ExactPercentile(batch_ns, 0.99),
               &exec.sim);
  }
  AddCriticalPathShares(spans, &exec.sim);
  exec.sim["xdp.fast_hit_pct"] =
      100.0 * Ratio(static_cast<double>(xdp.fast_hits), static_cast<double>(xdp.steady_offered));
  exec.sim["xdp.slow_admitted"] = static_cast<double>(xdp.slow_admitted);
  exec.sim["xdp.slow_shed"] = static_cast<double>(xdp.slow_shed);
  exec.sim["xdp.bans"] = static_cast<double>(xdp.bans);
  exec.sim["xdp.flow_max_chain"] = static_cast<double>(xdp.flow_max_chain);
  exec.sim["xdp.lb_spills"] = static_cast<double>(xdp.lb_spills);
  exec.sim["xdp.fabric_busy_ns"] = static_cast<double>(xdp.fabric_busy_ns);
  exec.sim["xdp.spray_issued"] = static_cast<double>(result.spray_issued);
  exec.result = result;
  return exec;
}

// Per-node DPU config of each workload (for xdp_ingress, its backends),
// mirroring the harnesses' own options -> HyperionConfig mapping.
template <typename Options>
dpu::HyperionConfig ConfigOf(const Options& options) {
  dpu::HyperionConfig config;
  config.nvme_devices = 1;
  config.lbas_per_device = options.lbas_per_device;
  config.dram_bytes = options.dram_bytes;
  config.hbm_bytes = options.hbm_bytes;
  config.link_gbps = options.fabric.default_link_gbps;
  return config;
}

dpu::HyperionConfig NodeConfig(Workload workload) {
  switch (workload) {
    case Workload::kNetKv:
      return ConfigOf(NetKvOptions(0, kTimedLayout));
    case Workload::kRepKv:
      return ConfigOf(RepKvOptions(0, kTimedLayout));
    case Workload::kLsmScan:
      return ConfigOf(LsmScanOptions(0, kTimedLayout));
    case Workload::kXdpIngress:
      return ConfigOf(XdpIngressOptions(0, kTimedLayout));
  }
  return {};
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2);
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = {Workload::kNetKv, Workload::kRepKv,
                                             Workload::kLsmScan, Workload::kXdpIngress};
  return kAll;
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kNetKv:
      return "netkv";
    case Workload::kRepKv:
      return "repkv";
    case Workload::kLsmScan:
      return "lsm_scan";
    case Workload::kXdpIngress:
      return "xdp_ingress";
  }
  return "";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const Workload workload : AllWorkloads()) {
    if (WorkloadName(workload) == name) {
      return workload;
    }
  }
  return std::nullopt;
}

Execution Execute(Workload workload, uint64_t seed, const Layout& layout) {
  Execution exec;
  switch (workload) {
    case Workload::kNetKv:
      exec = RunNetKv(seed, layout);
      break;
    case Workload::kRepKv:
      exec = RunRepKv(seed, layout);
      break;
    case Workload::kLsmScan:
      exec = RunLsmScan(seed, layout);
      break;
    case Workload::kXdpIngress:
      exec = RunXdpIngress(seed, layout);
      break;
  }
  exec.workload = workload;
  exec.sim["failed_pct"] =
      100.0 * Ratio(static_cast<double>(exec.failed), static_cast<double>(exec.attempted));
  return exec;
}

std::string GateError(const Execution& exec) {
  if (exec.attempted == 0) {
    return "no operations attempted";
  }
  switch (exec.workload) {
    case Workload::kNetKv: {
      const auto& result = std::get<dpu::ClusterResult>(exec.result);
      if (result.failed_ops != 0) {
        return "netkv: failed_ops = " + std::to_string(result.failed_ops);
      }
      return "";
    }
    case Workload::kRepKv: {
      const auto& result = std::get<dpu::RepClusterResult>(exec.result);
      if (result.failed_ops != 0) {
        return "repkv: failed_ops = " + std::to_string(result.failed_ops);
      }
      if (!exec.audit.ok()) {
        return "repkv: acked-write audit failed (lost " + std::to_string(exec.audit.lost) +
               ", mismatched " + std::to_string(exec.audit.mismatched) + ", divergent " +
               std::to_string(exec.audit.divergent) + ")";
      }
      return "";
    }
    case Workload::kLsmScan: {
      const auto& result = std::get<load::OverloadResult>(exec.result);
      if (result.scan_ok != result.scan_issued) {
        return "lsm_scan: scan_ok " + std::to_string(result.scan_ok) + " != scan_issued " +
               std::to_string(result.scan_issued);
      }
      if (result.failed + result.rejected + result.deadline_missed != 0) {
        return "lsm_scan: failed " + std::to_string(result.failed) + ", rejected " +
               std::to_string(result.rejected) + ", deadline_missed " +
               std::to_string(result.deadline_missed);
      }
      return "";
    }
    case Workload::kXdpIngress: {
      const auto& result = std::get<load::XdpClusterResult>(exec.result);
      if (result.spray_failed != 0) {
        return "xdp_ingress: spray_failed = " + std::to_string(result.spray_failed);
      }
      return "";
    }
  }
  return "unknown workload";
}

std::string ReplayError(const Execution& timed, const Execution& replay) {
  if (timed.workload != replay.workload || !(timed.result == replay.result)) {
    return std::string(WorkloadName(timed.workload)) +
           ": replay result differs from the timed layout's";
  }
  const dpu::RepAudit& a = timed.audit;
  const dpu::RepAudit& b = replay.audit;
  if (a.acked != b.acked || a.lost != b.lost || a.mismatched != b.mismatched ||
      a.divergent != b.divergent) {
    return "repkv: replay audit differs from the timed layout's";
  }
  return "";
}

Metrics TimeNodeConstruction(Workload workload, int reps) {
  const dpu::HyperionConfig config = NodeConfig(workload);
  std::vector<double> construct_ms;
  std::vector<double> boot_ms;
  std::vector<double> install_ms;
  for (int i = 0; i < reps; ++i) {
    sim::Engine clock;
    hyperion::net::Fabric fabric(&clock, hyperion::net::FabricParams{});
    Stopwatch watch;
    auto node = std::make_unique<dpu::Hyperion>(&clock, &fabric, config);
    construct_ms.push_back(watch.Lap().wall_s * 1e3);
    CHECK(node->Boot().ok());
    boot_ms.push_back(watch.Lap().wall_s * 1e3);
    if (workload == Workload::kRepKv) {
      auto service = dpu::ReplicatedKvService::Install(node.get());
      CHECK(service.ok());
      install_ms.push_back(watch.Lap().wall_s * 1e3);
    } else {
      auto services =
          dpu::HyperionServices::Install(node.get(), hyperion::storage::KvBackend::kBTree);
      CHECK(services.ok());
      install_ms.push_back(watch.Lap().wall_s * 1e3);
    }
  }
  return {{"dpu.node_construct_ms", Median(construct_ms)},
          {"dpu.node_boot_ms", Median(boot_ms)},
          {"dpu.services_install_ms", Median(install_ms)}};
}

}  // namespace perfbench
