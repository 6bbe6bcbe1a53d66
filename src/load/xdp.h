// Line-rate XDP ingress on Hyperion: eBPF -> FPGA match/action chain with a
// millions-of-flows table behind it (PR 8, E16).
//
// Three verified eBPF programs become three fabric regions chained over the
// AXI interconnect (fpga::MatchActionPipeline):
//
//   xdp_guard  SSH brute-force filter. Banned sources drop in-fabric;
//              unrecognized auth attempts REDIRECT to apps::Fail2Ban, which
//              durably logs the attempt and installs the ban back into the
//              fabric map — after which that attacker costs zero slow-path
//              time, i.e. sheds *before* admission control.
//   xdp_flow   Heavy-hitter accounting. The front map holds the hot flows;
//              hits count packets in-fabric and PASS. Misses REDIRECT to
//              the slow path, which tracks every flow (millions) in a
//              storage::HashIndex over the single-level store's HBM tier.
//   xdp_lb     Forwarding match. Flows pinned in the LB map TX in-fabric;
//              unpinned flows and FIN/RST teardowns REDIRECT so the
//              apps::LoadBalancer places them (consistent hash + flash
//              spill tier) and re-pins.
//
// Timing model — the core of the line-rate claim: the fabric chain and the
// slow path overlap. Fabric service is a busy-until variable advanced by
// the pipelined batch model (fill + (N-1) * bottleneck-II); the slow path
// runs on the DPU's node clock (HBM flow table, flash spill, Corfu audit
// log). Neither waits for the other. What couples them is flow control:
// an rx CreditGate bounds NIC batches in flight against fabric completion,
// and a sim::AdmissionController bounds slow-path backlog in virtual time,
// shedding misses the table tier cannot absorb — exactly the PR 5
// composition, applied per packet.
//
// XdpPipeline is the single-node datapath (bench arms: fabric vs
// baseline::HostCpu, which runs the same programs serially at kernel
// networking cost). XdpCluster is the sharded determinism harness: node 0
// runs the ingress, nodes 1..K are KvCluster-style backends; admitted new
// flows are sprayed to their backend over the sharded RPC fabric. Its
// result snapshot (including a per-packet verdict hash) must be
// bit-identical across shards {1, 2, 4}.

#ifndef HYPERION_SRC_LOAD_XDP_H_
#define HYPERION_SRC_LOAD_XDP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/apps/fail2ban.h"
#include "src/apps/load_balancer.h"
#include "src/baseline/host.h"
#include "src/dpu/cluster.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/rpc.h"
#include "src/dpu/services.h"
#include "src/fpga/match_action.h"
#include "src/load/packet_trace.h"
#include "src/obs/trace.h"
#include "src/sim/flow.h"
#include "src/storage/hash_index.h"

namespace hyperion::load {

struct XdpOptions {
  PacketTraceOptions trace;
  // NIC RX coalescing: frames per batch.
  uint32_t rx_batch = 64;
  // Fabric-resident map sizes. The front map is sized to the hot set so
  // the ramp (hot flows open first) pins exactly the heavy hitters.
  uint32_t front_entries = 0;  // 0 = trace.hot_flows
  // Flow-table directory (storage::HashIndex roots), on the HBM tier.
  uint32_t flow_buckets = 4096;
  // Load balancer: DRAM-resident flow capacity and flash-spill directory.
  uint32_t lb_resident = 32768;
  uint32_t lb_spill_buckets = 4096;
  uint32_t backends = 4;
  ebpf::CodegenOptions codegen;
  // false = baseline::HostCpu arm: same programs, same slow path, but every
  // packet pays the kernel network stack serially on one core.
  bool use_fpga = true;
};

// Snapshot of one run; equality across shard layouts is the E16 oracle.
struct XdpStats {
  uint64_t rx_frames = 0;
  uint64_t rx_batches = 0;
  uint64_t rx_overflow = 0;      // frames shed at the NIC ring
  uint64_t drop_banned = 0;      // in-fabric drops, zero slow-path cost
  uint64_t auth_reports = 0;     // guard REDIRECTs into fail2ban
  uint64_t auth_shed = 0;
  uint64_t bans = 0;
  uint64_t fast_hits = 0;        // front-map hits counted in-fabric
  uint64_t fast_tx = 0;          // forwarded without leaving the fabric
  uint64_t slow_packets = 0;     // REDIRECTs reaching admission
  uint64_t slow_admitted = 0;
  uint64_t slow_shed = 0;
  uint64_t flow_inserts = 0;
  uint64_t flow_updates = 0;
  uint64_t teardowns = 0;
  uint64_t sprayed = 0;          // new-flow registrations handed to on_new_flow
  // Flow-table directory health (satellite: HashIndexStats).
  uint64_t flow_entries = 0;
  uint32_t flow_max_chain = 0;
  double flow_mean_chain = 0.0;
  uint64_t flow_overflow_buckets = 0;
  double flow_occupancy = 0.0;
  // Load-balancer tiers.
  uint64_t lb_new_flows = 0;
  uint64_t lb_spills = 0;
  uint64_t lb_spill_hits = 0;
  uint64_t lb_spill_entries = 0;
  // Clocks: fabric busy-until vs the table tier's node clock.
  sim::SimTime fabric_busy_ns = 0;
  sim::SimTime clock_ns = 0;
  // Steady-phase throughput accounting.
  uint64_t steady_offered = 0;
  uint64_t steady_delivered = 0;
  sim::SimTime steady_window_ns = 0;
  // FNV over every packet's final disposition, in arrival order.
  uint64_t verdict_hash = 0;

  bool operator==(const XdpStats&) const = default;

  double SteadyMpps() const {
    return steady_window_ns > 0
               ? static_cast<double>(steady_delivered) * 1e3 / static_cast<double>(steady_window_ns)
               : 0.0;
  }
};

class XdpPipeline {
 public:
  // New-flow registration hook (cluster spray): key, placed backend, and
  // the admission time on the ingress clock.
  using NewFlowFn =
      std::function<void(const apps::FlowKey&, const apps::Backend&, sim::SimTime)>;

  // Backend ring addresses: ip = kBackendIpBase + i maps to cluster node
  // 1 + i, which is how XdpCluster routes spray RPCs.
  static constexpr uint32_t kBackendIpBase = 0x0A640001;  // 10.100.0.1

  // Builds maps, programs, apps and (use_fpga) the match/action chain on
  // `dpu`, which must be booted. The pipeline charges slow-path costs to
  // the DPU's engine and keeps fabric service in its own busy-until clock.
  static Result<std::unique_ptr<XdpPipeline>> Create(dpu::Hyperion* dpu, XdpOptions options);

  // Runs frames [first, first+count) arriving at `arrival` (first frame;
  // the rest follow at wire pace) through the chain and the slow path.
  Status ProcessBatch(uint64_t first, uint32_t count, sim::SimTime arrival,
                      const NewFlowFn& on_new_flow = nullptr);

  // Standalone run: every batch of the trace, arrivals offset from the
  // current engine clock. Single-engine (bench) mode.
  Status Run(const NewFlowFn& on_new_flow = nullptr);

  // Per-batch span emission (kEngine root + per-stage kFpga/kNet/kStore/
  // kApp children). Null disables; switchable mid-run (e.g. steady only).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  const PacketTrace& trace() const { return trace_; }
  const storage::HashIndex& flow_table() const { return *flows_; }
  const apps::LoadBalancer& lb() const { return *lb_; }
  const apps::Fail2Ban& fail2ban() const { return *fail2ban_; }
  // The fabric chain (use_fpga arm), or null.
  fpga::MatchActionPipeline* fabric_pipeline() const { return ma_.get(); }
  const std::vector<apps::Backend>& backends() const { return backends_; }
  sim::SimTime fabric_busy() const { return fabric_busy_; }

  // Final snapshot (flow-table stats are recomputed here).
  XdpStats Snapshot() const;

 private:
  XdpPipeline(dpu::Hyperion* dpu, XdpOptions options)
      : dpu_(dpu),
        options_(options),
        trace_(options.trace),
        rx_credits_(kRxRingBatches),
        admission_(kSlowPathAdmission) {}

  // RX batches in flight before the NIC ring sheds (the CreditGate
  // capacity).
  static constexpr uint32_t kRxRingBatches = 64;
  // Slow-path admission: the flow-table tier's overload bound.
  static constexpr sim::AdmissionParams kSlowPathAdmission{.max_pending = 8192,
                                                           .max_backlog = 1 * sim::kMillisecond};
  // Deadline of slow-path and auth work, relative to the packet's arrival.
  static constexpr sim::Duration kSlowDeadline = 2 * sim::kMillisecond;

  Status BuildDataPath();
  Status SlowPath(const TraceFrameMeta& meta, sim::SimTime packet_arrival,
                  const NewFlowFn& on_new_flow, uint64_t* disposition);
  void NoteVerdict(uint64_t disposition);

  dpu::Hyperion* dpu_;
  XdpOptions options_;
  PacketTrace trace_;
  obs::Tracer* tracer_ = nullptr;

  // Fabric-resident maps (ids in the DPU registry).
  uint32_t banned_map_ = 0;
  uint32_t front_map_ = 0;
  uint32_t pins_map_ = 0;

  std::unique_ptr<fpga::MatchActionPipeline> ma_;  // use_fpga arm
  // Host arm: same programs, interpreted serially at kernel cost.
  std::vector<ebpf::Executable> host_stages_;
  std::unique_ptr<ebpf::Vm> host_vm_;
  std::unique_ptr<baseline::HostCpu> host_;

  std::unique_ptr<storage::HashIndex> flows_;
  std::unique_ptr<apps::LoadBalancer> lb_;
  std::unique_ptr<apps::Fail2Ban> fail2ban_;
  std::vector<apps::Backend> backends_;

  sim::CreditGate rx_credits_;
  std::deque<sim::SimTime> rx_in_flight_;  // batch service completion times
  sim::AdmissionController admission_;

  sim::SimTime t0_ = 0;           // trace origin on this node's clock
  sim::SimTime fabric_busy_ = 0;  // fabric chain busy-until
  // Per-frame tallies; Snapshot() adds the flow table, LB and clocks.
  XdpStats tallies_;
  uint64_t verdict_hash_ = 0x811c9dc5u;
  uint64_t steady_offered_ = 0;
  uint64_t steady_delivered_ = 0;
  sim::SimTime steady_first_arrival_ = 0;
  bool started_ = false;
};

// -- Sharded cluster harness (determinism oracle) ----------------------------

// The shared node sizing is the backends'; the ingress raises it to what
// the flow table needs.
struct XdpClusterOptions : dpu::ClusterBaseOptions {
  XdpOptions xdp;
  uint32_t num_backends = 3;
  // Backend-side overload policy for the spray RPCs, which carry a 2 ms
  // deadline.
  dpu::RpcOverloadPolicy policy;
  // Register every Nth admitted new flow with its backend over RPC.
  uint32_t spray_sample = 1;
};

struct XdpClusterResult {
  XdpStats xdp;
  uint64_t spray_issued = 0;
  uint64_t spray_ok = 0;
  uint64_t spray_rejected = 0;
  uint64_t spray_failed = 0;
  uint64_t backend_served = 0;
  uint64_t backend_shed = 0;
  uint64_t messages = 0;
  sim::SimTime ingress_clock_ns = 0;
  sim::SimTime makespan_ns = 0;

  bool operator==(const XdpClusterResult&) const = default;
};

class XdpCluster : public dpu::Cluster {
 public:
  explicit XdpCluster(const XdpClusterOptions& options);

  // Drives the whole trace through the ingress node, spraying admitted new
  // flows to the backends. One-shot.
  XdpClusterResult Run();

  // The ingress pipeline's per-batch tracer (on unless disabled); it is
  // node 0's tracer, so MergedTrace() returns its spans.
  obs::Tracer& ingress_tracer() { return *node(0).tracer; }

 private:
  // Node 0; its clock is where slow-path costs live.
  struct IngressNode : Node {
    std::unique_ptr<XdpPipeline> pipeline;
  };
  struct BackendNode : Node {
    std::unique_ptr<dpu::HyperionServices> services;
  };

  void ScheduleBatch(uint64_t first);
  void SprayFlow(const apps::FlowKey& key, const apps::Backend& backend, sim::SimTime now);

  XdpClusterOptions options_;
  sim::SimTime start_ = 0;
  uint64_t spray_seen_ = 0;
  uint64_t spray_issued_ = 0;
  uint64_t spray_ok_ = 0;
  uint64_t spray_rejected_ = 0;
  uint64_t spray_failed_ = 0;
};

}  // namespace hyperion::load

#endif  // HYPERION_SRC_LOAD_XDP_H_
