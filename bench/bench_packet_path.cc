// Experiment E16 — line-rate XDP ingress (PR 8).
//
// The headline: three verified eBPF programs compiled into an FPGA
// match/action chain (fpga::MatchActionPipeline) against the same programs
// interpreted serially behind the kernel network stack (baseline::HostCpu),
// both fed the identical deterministic 2x100 GbE trace with over a million
// concurrent flows tracked in a storage::HashIndex on the HBM tier.
//
//   PacketPath/fpga:{0,1}/flows_log2:N
//       Full trace (ramp opens every flow, then a back-to-back steady
//       window at the aggregate line rate). Counters per run:
//         sim_mpps        steady-phase delivered Mpps on the virtual clock
//         line_mpps       the attachment's packet budget at this frame size
//         flow_entries    concurrent flows resident in the hash index
//         fast_hit_pct    steady traffic absorbed in-fabric (front map)
//         shed_pct        packets shed by ring overflow or admission
//       At flows_log2:20 (1,048,576 flows, 1024-byte frames) the fabric
//       arm's bottleneck stage admits a frame every 32 ns against a 40.9 ns
//       wire time, so sim_mpps == line_mpps; the host arm pays the kernel
//       stack per packet on one core and saturates at a small fraction.
//
//   PacketPathSmoke/fpga:{0,1}   the same shape at CI scale.
//
//   Attribution   one traced run; per-batch critical-path self-time split
//       by subsystem (wire vs fabric chain vs flow table vs apps) from the
//       PR 4 span tracer, as counters.
//
//   ClusterIdentity   the E16 oracle: XdpCluster runs over shard layouts
//       {1,2,4} must produce bit-identical results (including the
//       per-packet verdict hash). Aborts on divergence.
//
// Regenerate the PR 8 numbers with
//   bench_packet_path --benchmark_format=json > BENCH_PR8.json

#include <algorithm>
#include <cstdint>
#include <memory>

#include <benchmark/benchmark.h>

#include "src/common/check.h"
#include "src/dpu/hyperion.h"
#include "src/load/packet_trace.h"
#include "src/load/xdp.h"
#include "src/net/fabric.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace {

using namespace hyperion;  // NOLINT

struct Rig {
  sim::Engine engine;
  net::Fabric fabric{&engine, {}};
  dpu::Hyperion dpu;

  explicit Rig(uint64_t hbm_bytes)
      : dpu(&engine, &fabric, [&] {
          dpu::HyperionConfig config;
          config.nvme_devices = 1;
          config.lbas_per_device = 65536;
          config.hbm_bytes = hbm_bytes;
          config.dram_bytes = 128ull << 20;
          return config;
        }()) {
    CHECK(dpu.Boot().ok());
  }
};

// One option set for both arms, scaled by flow count. The headline keeps
// the whole flow population DRAM-resident in the load balancer (the flash
// spill tier is exercised by the fault tests, not the line-rate claim) and
// paces the ramp so connection setup — flow-table insert plus placement —
// fits the interarrival gap on both arms.
load::XdpOptions PathOptions(uint32_t flows, uint64_t steady, bool fpga) {
  load::XdpOptions options;
  options.trace.benign_flows = flows;
  options.trace.hot_flows = flows / 16;
  options.trace.attacker_ips = 64;
  options.trace.attack_packets_per_ip = 8;
  options.trace.steady_packets = steady;
  options.trace.hot_per_myriad = 9800;
  options.trace.frame_bytes = 1024;  // 40.9 ns wire > 32 ns fabric admission
  options.trace.ramp_interarrival = 4 * sim::kMicrosecond;
  options.front_entries = options.trace.hot_flows;
  options.flow_buckets = std::max(64u, flows / 64);
  options.lb_resident = flows;
  options.lb_spill_buckets = 256;
  options.backends = 4;
  // Match tables live in on-fabric BRAM: dual-ported, 4-cycle lookups.
  options.codegen.mem_ports = 2;
  options.codegen.helper_cycles = 4;
  options.use_fpga = fpga;
  return options;
}

uint64_t HbmFor(const load::XdpOptions& options) {
  // Root directory plus overflow-chain headroom, floor of 64 MiB.
  const uint64_t directory = uint64_t{options.flow_buckets} * 4096;
  return std::max<uint64_t>(64ull << 20, directory * 4);
}

void RunPacketPath(benchmark::State& state, uint32_t flows, uint64_t steady) {
  const bool fpga = state.range(0) != 0;
  const load::XdpOptions options = PathOptions(flows, steady, fpga);
  load::XdpStats stats;
  uint64_t total_packets = 0;
  for (auto _ : state) {
    Rig rig(HbmFor(options));
    auto built = load::XdpPipeline::Create(&rig.dpu, options);
    CHECK(built.ok());
    CHECK((*built)->Run().ok());
    stats = (*built)->Snapshot();
    total_packets += (*built)->trace().total_packets();
  }
  const load::PacketTrace trace(options.trace);
  state.SetItemsProcessed(static_cast<int64_t>(total_packets));
  state.counters["sim_mpps"] = stats.SteadyMpps();
  state.counters["line_mpps"] =
      1e3 / static_cast<double>(trace.FrameWireTime());
  state.counters["flow_entries"] = static_cast<double>(stats.flow_entries);
  state.counters["fast_hit_pct"] =
      100.0 * static_cast<double>(stats.fast_hits) /
      static_cast<double>(stats.steady_offered ? stats.steady_offered : 1);
  state.counters["shed_pct"] =
      100.0 *
      static_cast<double>(stats.rx_overflow + stats.slow_shed + stats.auth_shed) /
      static_cast<double>(stats.rx_frames ? stats.rx_frames : 1);
  state.counters["flow_max_chain"] = static_cast<double>(stats.flow_max_chain);
}

void PacketPath(benchmark::State& state) {
  RunPacketPath(state, 1u << 20, 1 << 18);
}

void PacketPathSmoke(benchmark::State& state) {
  RunPacketPath(state, 1u << 14, 1 << 15);
}

BENCHMARK(PacketPath)
    ->Name("E16/PacketPath")
    ->ArgNames({"fpga"})
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(PacketPathSmoke)
    ->Name("E16/PacketPathSmoke")
    ->ArgNames({"fpga"})
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Per-stage critical-path attribution (PR 4 tracer): where a batch's time
// actually goes — the wire (kNet), the match/action chain (kFpga), the
// flow table (kStore) and the apps behind REDIRECT (kApp).
void Attribution(benchmark::State& state) {
  const load::XdpOptions options = PathOptions(1u << 14, 1 << 15, /*fpga=*/true);
  obs::CriticalPathReport report;
  uint64_t batches = 1;
  for (auto _ : state) {
    Rig rig(HbmFor(options));
    obs::Tracer tracer(0);
    auto built = load::XdpPipeline::Create(&rig.dpu, options);
    CHECK(built.ok());
    (*built)->set_tracer(&tracer);
    CHECK((*built)->Run().ok());
    report = obs::BuildCriticalPathReport(tracer.spans());
    batches = (*built)->counters().Get("xdp_rx_batches");
    state.SetItemsProcessed(
        static_cast<int64_t>((*built)->trace().total_packets()));
  }
  const auto per_batch = [&](obs::Subsystem s) {
    return static_cast<double>(report.totals[static_cast<size_t>(s)]) /
           static_cast<double>(batches);
  };
  state.counters["wire_ns_per_batch"] = per_batch(obs::Subsystem::kNet);
  state.counters["fabric_ns_per_batch"] = per_batch(obs::Subsystem::kFpga);
  state.counters["table_ns_per_batch"] = per_batch(obs::Subsystem::kStore);
  state.counters["app_ns_per_batch"] = per_batch(obs::Subsystem::kApp);
}

BENCHMARK(Attribution)
    ->Name("E16/Attribution")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The determinism oracle as a benchmark: all three shard layouts must
// produce bit-identical XdpClusterResult snapshots (verdict hash included).
void ClusterIdentity(benchmark::State& state) {
  uint64_t messages = 0;
  uint64_t packets = 0;
  for (auto _ : state) {
    load::XdpClusterResult baseline;
    bool first = true;
    for (uint32_t shards : {1u, 2u, 4u}) {
      load::XdpClusterOptions options;
      options.xdp = PathOptions(1u << 12, 1 << 13, /*fpga=*/true);
      options.xdp.flow_buckets = 256;
      options.num_backends = 3;
      options.num_shards = shards;
      options.policy.enabled = true;
      options.spray_sample = 4;
      load::XdpCluster cluster(options);
      const load::XdpClusterResult result = cluster.Run();
      CHECK_GT(result.xdp.verdict_hash, 0u);
      if (first) {
        baseline = result;
        first = false;
      } else {
        CHECK(result == baseline);  // E16 acceptance: bit-identical
      }
      messages += result.messages;
      packets += result.xdp.rx_frames;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(packets));
  state.counters["layouts"] = 3;
  state.counters["identical"] = 1;
  state.counters["messages"] = static_cast<double>(messages);
}

BENCHMARK(ClusterIdentity)
    ->Name("E16/ClusterIdentity")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
