// XDP ingress pipeline tests (PR 8, E16): match/action semantics on a
// standalone DPU, overlap/flow-control invariants, per-stage critical-path
// attribution, and bit-identical XdpCluster results across shard layouts.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/dpu/hyperion.h"
#include "src/ebpf/assembler.h"
#include "src/fpga/match_action.h"
#include "src/load/packet_trace.h"
#include "src/load/xdp.h"
#include "src/net/fabric.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "tests/testutil.h"

namespace hyperion {
namespace {

using load::PacketTrace;
using load::PacketTraceOptions;
using load::TracePhase;
using load::XdpCluster;
using load::XdpClusterOptions;
using load::XdpClusterResult;
using load::XdpOptions;
using load::XdpPipeline;
using load::XdpStats;

PacketTraceOptions SmallTrace() {
  PacketTraceOptions trace;
  trace.benign_flows = 2048;
  trace.hot_flows = 256;
  trace.attacker_ips = 4;
  trace.attack_packets_per_ip = 8;
  trace.steady_packets = 4096;
  trace.hot_per_myriad = 9800;
  // Connection setup is flash-paced: an LB spill write costs ~270us, a
  // fail2ban audit append ~60us. 350us/open keeps the slow path drained.
  trace.ramp_interarrival = 350 * sim::kMicrosecond;
  trace.frame_bytes = 1024;  // 41ns wire > 32ns fabric admission
  return trace;
}

XdpOptions SmallOptions() {
  XdpOptions options;
  options.trace = SmallTrace();
  options.rx_batch = 32;
  options.flow_buckets = 64;
  options.lb_resident = 512;
  options.lb_spill_buckets = 64;
  options.backends = 3;
  // Match tables live in on-fabric BRAM: dual-ported, 4-cycle lookups.
  options.codegen.mem_ports = 2;
  options.codegen.helper_cycles = 4;
  return options;
}

struct Rig {
  sim::Engine engine;
  net::Fabric fabric{&engine, {}};
  dpu::Hyperion dpu;

  explicit Rig(uint64_t hbm_bytes = 64ull << 20)
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

// -- PacketTrace -------------------------------------------------------------

TEST(PacketTraceTest, RampOpensEveryFlowOnceHotFirst) {
  PacketTrace trace(SmallTrace());
  std::vector<uint32_t> opens(trace.options().benign_flows, 0);
  uint64_t attacks = 0;
  uint64_t first_cold_open = 0;
  uint8_t frame[PacketTrace::kCtxBytes];
  for (uint64_t i = 0; i < trace.ramp_packets(); ++i) {
    const load::TraceFrameMeta meta = trace.FrameAt(i, MutableByteSpan(frame, sizeof frame));
    EXPECT_EQ(meta.phase, TracePhase::kRamp);
    if (meta.attack) {
      ++attacks;
      EXPECT_EQ(meta.packet.flow.dst_port, PacketTrace::kAuthPort);
      continue;
    }
    ASSERT_TRUE(meta.flow_open);
    ASSERT_LT(meta.flow_id, opens.size());
    ++opens[meta.flow_id];
    if (meta.flow_id >= trace.options().hot_flows && first_cold_open == 0) {
      first_cold_open = i;
    }
  }
  for (uint32_t n : opens) {
    EXPECT_EQ(n, 1u);
  }
  EXPECT_EQ(attacks,
            uint64_t{trace.options().attacker_ips} * trace.options().attack_packets_per_ip);
  // Hot flows all opened before the first cold open (minus attack slots).
  EXPECT_GE(first_cold_open, trace.options().hot_flows);
}

TEST(PacketTraceTest, FrameBytesMatchMetaAndArrivalsAreMonotone) {
  PacketTrace trace(SmallTrace());
  uint8_t frame[PacketTrace::kCtxBytes];
  sim::SimTime prev = 0;
  for (uint64_t i = 0; i < trace.total_packets(); i += 97) {
    const load::TraceFrameMeta meta = trace.FrameAt(i, MutableByteSpan(frame, sizeof frame));
    EXPECT_EQ(frame[PacketTrace::kOffProto], 6);
    const uint32_t src_ip = uint32_t{frame[PacketTrace::kOffSrcIp]} |
                            uint32_t{frame[PacketTrace::kOffSrcIp + 1]} << 8 |
                            uint32_t{frame[PacketTrace::kOffSrcIp + 2]} << 16 |
                            uint32_t{frame[PacketTrace::kOffSrcIp + 3]} << 24;
    EXPECT_EQ(src_ip, meta.packet.flow.src_ip);
    const uint16_t dst_port = uint16_t(frame[PacketTrace::kOffDstPort] |
                                       frame[PacketTrace::kOffDstPort + 1] << 8);
    EXPECT_EQ(dst_port, meta.packet.flow.dst_port);
    EXPECT_EQ(frame[PacketTrace::kOffTcpFlags], meta.packet.tcp_flags);
    const sim::SimTime at = trace.ArrivalOf(i);
    EXPECT_GE(at, prev);
    prev = at;
  }
  // Steady arrivals are wire-paced; ramp arrivals are setup-paced.
  EXPECT_EQ(trace.ArrivalOf(trace.ramp_packets() + 1) - trace.SteadyStart(),
            trace.FrameWireTime());
}

// -- XdpPipeline (standalone, FPGA arm) --------------------------------------

TEST(XdpPipelineTest, EndToEndSemantics) {
  Rig rig;
  auto built = XdpPipeline::Create(&rig.dpu, SmallOptions());
  ASSERT_TRUE(built.ok()) << built.status().message();
  XdpPipeline& pipeline = **built;
  ASSERT_TRUE(pipeline.Run().ok());
  const XdpStats stats = pipeline.Snapshot();

  // Every frame of the trace went through (or was counted shed).
  EXPECT_EQ(stats.rx_frames, pipeline.trace().total_packets());
  // The attack burst: max_failures attempts log + ban, the rest drop
  // in-fabric at stage 1.
  EXPECT_EQ(stats.bans, 4u);
  EXPECT_GT(stats.drop_banned, 0u);
  EXPECT_GT(stats.auth_reports, 0u);
  EXPECT_EQ(stats.drop_banned + stats.auth_reports + stats.auth_shed,
            uint64_t{4} * 8);
  // Every benign flow was tracked; none were shed at this pace.
  EXPECT_EQ(stats.flow_entries, 2048u);
  EXPECT_EQ(stats.flow_inserts, 2048u);
  EXPECT_EQ(stats.slow_shed, 0u);
  EXPECT_EQ(stats.rx_overflow, 0u);
  // Hot flows hit the front map in-fabric during steady state.
  EXPECT_GT(stats.fast_hits, stats.steady_offered / 2);
  EXPECT_GT(stats.fast_tx, 0u);
  // Steady phase ran at (near) line rate: the fabric kept pace with the
  // wire, so the delivered rate is within 20% of the offered line rate.
  const double line_mpps =
      1e3 / static_cast<double>(pipeline.trace().FrameWireTime());
  EXPECT_GT(stats.SteadyMpps(), 0.8 * line_mpps);
  // The slow path (node clock) stayed behind the wire: overlap, not
  // serialization.
  EXPECT_LT(stats.clock_ns, stats.fabric_busy_ns + sim::kMillisecond);
  // LB spilled the cold tail to flash and kept every flow routable.
  EXPECT_GT(stats.lb_spills, 0u);
  EXPECT_EQ(stats.lb_new_flows, 2048u);
}

TEST(XdpPipelineTest, FabricChainIsPlacedAndPipelined) {
  Rig rig;
  auto built = XdpPipeline::Create(&rig.dpu, SmallOptions());
  ASSERT_TRUE(built.ok());
  const fpga::MatchActionPipeline* ma = (*built)->fabric_pipeline();
  ASSERT_NE(ma, nullptr);
  ASSERT_EQ(ma->StageCount(), 3u);
  EXPECT_EQ(ma->stage(0).name, "xdp_guard");
  EXPECT_EQ(ma->stage(1).name, "xdp_flow");
  EXPECT_EQ(ma->stage(2).name, "xdp_lb");
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_GT(ma->stage(s).initiation_interval, 0u);
    EXPECT_GE(ma->stage(s).critical_path_cycles, ma->stage(s).initiation_interval);
    EXPECT_TRUE(rig.dpu.fabric().IsLoaded(ma->stage(s).region));
  }
  // Pipelining: service for N packets is fill + (N-1)*II, far below
  // N * fill.
  const uint64_t n = 64;
  const sim::Duration batch = ma->BatchTime(n);
  EXPECT_LT(batch, n * ma->BatchTime(1));
  EXPECT_EQ(batch, ma->BatchTime(1) + (n - 1) * ma->AdmissionPeriod());
}

TEST(XdpPipelineTest, HostArmSaturatesWhereFabricKeepsPace) {
  XdpOptions options = SmallOptions();
  options.trace.benign_flows = 512;
  options.trace.hot_flows = 128;
  // Enough steady batches (256) that the 64-deep RX ring cannot mask a
  // slow consumer: a saturated arm must visibly drop at the NIC.
  options.trace.steady_packets = 8192;
  options.trace.attacker_ips = 0;
  options.trace.attack_packets_per_ip = 0;

  Rig fpga_rig;
  auto fpga_arm = XdpPipeline::Create(&fpga_rig.dpu, options);
  ASSERT_TRUE(fpga_arm.ok());
  ASSERT_TRUE((*fpga_arm)->Run().ok());
  const XdpStats fpga_stats = (*fpga_arm)->Snapshot();

  options.use_fpga = false;
  Rig host_rig;
  auto host_arm = XdpPipeline::Create(&host_rig.dpu, options);
  ASSERT_TRUE(host_arm.ok());
  ASSERT_TRUE((*host_arm)->Run().ok());
  const XdpStats host_stats = (*host_arm)->Snapshot();

  // The fabric arm tracked every flow at this pace...
  EXPECT_EQ(fpga_stats.flow_entries, 512u);
  // ...but the host arm pays the kernel stack serially: it sheds at the
  // NIC ring and delivers an order of magnitude less.
  EXPECT_GT(host_stats.rx_overflow, 0u);
  EXPECT_LT(host_stats.SteadyMpps(), fpga_stats.SteadyMpps() / 5);
}

TEST(XdpPipelineTest, TeardownsUnpinAndShrinkFlowTable) {
  XdpOptions options = SmallOptions();
  options.trace.teardown_per_myriad = 500;
  options.trace.hot_per_myriad = 9000;
  Rig rig;
  auto built = XdpPipeline::Create(&rig.dpu, options);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Run().ok());
  const XdpStats stats = (*built)->Snapshot();
  EXPECT_GT(stats.teardowns, 0u);
  EXPECT_EQ(stats.flow_entries + stats.teardowns,
            stats.flow_inserts);
}

TEST(XdpPipelineTest, RejectedProgramNeverReachesFabric) {
  Rig rig;
  // A backward jump (loop) must be rejected by the verifier before any
  // bitstream is synthesized: MatchActionPipeline::Create fails and no
  // region beyond the static shell is configured.
  auto looping = ebpf::Assemble(R"(
      mov r0, 10
  again:
      sub r0, 1
      jne r0, 0, again
      exit
  )",
                                "xdp_loop", PacketTrace::kCtxBytes);
  ASSERT_TRUE(looping.ok());
  std::vector<fpga::MatchActionStageSpec> specs;
  fpga::MatchActionStageSpec spec;
  spec.program = std::move(*looping);
  specs.push_back(std::move(spec));
  auto pipeline = fpga::MatchActionPipeline::Create(&rig.dpu.fabric(), &rig.dpu.axi(),
                                                    &rig.dpu.maps(), std::move(specs));
  EXPECT_EQ(pipeline.status().code(), StatusCode::kPermissionDenied);
  uint32_t loaded = 0;
  for (fpga::RegionId r = 0; r < rig.dpu.fabric().RegionCount(); ++r) {
    loaded += rig.dpu.fabric().IsLoaded(r) ? 1 : 0;
  }
  EXPECT_EQ(loaded, 0u);
}

TEST(XdpPipelineTest, CriticalPathReportAttributesStages) {
  XdpOptions options = SmallOptions();
  options.trace.benign_flows = 256;
  options.trace.hot_flows = 64;
  options.trace.steady_packets = 1024;
  Rig rig;
  obs::Tracer tracer(7);
  auto built = XdpPipeline::Create(&rig.dpu, options);
  ASSERT_TRUE(built.ok());
  (*built)->set_tracer(&tracer);
  ASSERT_TRUE((*built)->Run().ok());

  const obs::CriticalPathReport report = obs::BuildCriticalPathReport(tracer.spans());
  ASSERT_FALSE(report.rows.empty());
  // One root per batch.
  const uint64_t batches = (*built)->counters().Get("xdp_rx_batches");
  EXPECT_EQ(report.rows.size(), batches);
  // The wire (kNet), the match/action chain (kFpga) and the flow table
  // (kStore) all contribute self-time.
  EXPECT_GT(report.totals[static_cast<size_t>(obs::Subsystem::kNet)], 0);
  EXPECT_GT(report.totals[static_cast<size_t>(obs::Subsystem::kFpga)], 0);
  EXPECT_GT(report.totals[static_cast<size_t>(obs::Subsystem::kStore)], 0);
  // Per-stage spans exist for each program.
  bool saw_guard = false, saw_flow = false, saw_lb = false;
  for (const obs::SpanRecord& span : tracer.spans()) {
    saw_guard |= span.name == "ma/xdp_guard";
    saw_flow |= span.name == "ma/xdp_flow";
    saw_lb |= span.name == "ma/xdp_lb";
  }
  EXPECT_TRUE(saw_guard && saw_flow && saw_lb);
}

// -- XdpCluster determinism oracle -------------------------------------------

XdpClusterOptions ClusterOptions() {
  XdpClusterOptions options;
  options.xdp = SmallOptions();
  options.xdp.trace.benign_flows = 1024;
  options.xdp.trace.hot_flows = 128;
  options.xdp.trace.steady_packets = 2048;
  options.num_backends = 3;
  options.policy.enabled = true;
  options.spray_sample = 4;
  return options;
}

TEST(XdpClusterTest, SpraysNewFlowsToBackends) {
  XdpCluster cluster(ClusterOptions());
  const XdpClusterResult result = cluster.Run();
  EXPECT_EQ(result.xdp.flow_inserts, 1024u);
  // Every 4th registration goes out as an RPC; completions all resolve.
  EXPECT_EQ(result.spray_issued, 1024u / 4);
  EXPECT_EQ(result.spray_ok + result.spray_rejected + result.spray_failed,
            result.spray_issued);
  EXPECT_GT(result.spray_ok, 0u);
  EXPECT_EQ(result.backend_served, result.spray_ok);
  EXPECT_GT(result.messages, 0u);
}

TEST(XdpClusterTest, BitIdenticalAcrossShardLayouts) {
  const XdpClusterResult golden = testutil::ExpectLayoutInvariant<XdpCluster>(ClusterOptions());
  EXPECT_GT(golden.xdp.verdict_hash, 0u);
  EXPECT_EQ(golden.xdp.flow_inserts, 1024u);
}

}  // namespace
}  // namespace hyperion
