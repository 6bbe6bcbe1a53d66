// FPGA-resident match/action pipeline: verified eBPF stages as chained
// fabric designs (PR 8).
//
// The XDP ingress path of §2.4 is a chain of match/action stages — ban
// filter, flow accounting, load-balancer match — each a verified eBPF
// program lowered by hdl_codegen into its own reconfigurable region and
// stitched to its neighbours over the AXI interconnect. Two properties of
// that arrangement carry the performance argument:
//
//   * Spatial pipelining: every stage is a feed-forward pipeline (the
//     verifier rejects back edges), so a region accepts a new packet every
//     II cycles (structural-hazard bound from hdl_codegen). Stages overlap:
//     a batch of N packets occupies the chain for
//     fill + (N - 1) * II_bottleneck, not N * latency. Throughput is set by
//     the *worst stage's II*, not the sum of stage latencies.
//   * Deterministic timing: each region runs at its own post-route Fmax
//     regardless of neighbours (fpga::Fabric contract), so batch service
//     time is pure arithmetic — no interference terms.
//
// Functional behaviour comes from the eBPF interpreter; time is charged
// at batch granularity from the pipelined model. Programs that fail
// verification are rejected here, before any plan is built or any
// bitstream touches the fabric.

#ifndef HYPERION_SRC_FPGA_MATCH_ACTION_H_
#define HYPERION_SRC_FPGA_MATCH_ACTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/ebpf/hdl_codegen.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/maps.h"
#include "src/ebpf/vm.h"
#include "src/fpga/axi.h"
#include "src/fpga/fabric.h"
#include "src/sim/time.h"

namespace hyperion::fpga {

// XDP verdict conventions (program r0).
inline constexpr uint64_t kXdpAborted = 0;
inline constexpr uint64_t kXdpDrop = 1;
inline constexpr uint64_t kXdpPass = 2;
inline constexpr uint64_t kXdpTx = 3;
inline constexpr uint64_t kXdpRedirect = 4;

struct MatchActionStageSpec {
  ebpf::Program program;
  ebpf::CodegenOptions codegen;
};

struct MatchActionStageInfo {
  std::string name;
  RegionId region = 0;
  uint32_t initiation_interval = 0;  // cycles between packet admissions
  uint32_t critical_path_cycles = 0;
  double mean_ilp = 0.0;
  double fmax_mhz = 0.0;
};

class MatchActionPipeline {
 public:
  // Verifies, compiles and places one region per stage. Rejected programs
  // never reach hdl_codegen (the Verify error is returned as-is); plans
  // that compile but do not fit a region fail at Reconfigure time.
  static Result<std::unique_ptr<MatchActionPipeline>> Create(
      Fabric* fabric, ebpf::MapRegistry* maps, std::vector<MatchActionStageSpec> stages,
      TenantId tenant = kNoTenant);

  size_t StageCount() const { return stages_.size(); }
  const MatchActionStageInfo& stage(size_t i) const { return stages_[i]; }

  // Functional execution of one frame: runs the stages in order on `ctx`
  // (the frame bytes) while they answer kXdpPass, and returns the stage
  // that stopped the chain with its r0 verdict. Time is charged per batch
  // (BatchTime), not here.
  Result<ebpf::ChainExit> RunChain(MutableByteSpan ctx) {
    return vm_.RunChain(programs_, ctx, kXdpPass);
  }

  // Pipelined service time for a batch of `packets` frames through the
  // whole chain: per-stage fill (critical path at the stage's Fmax) plus an
  // AXI descriptor hop between stages, then one bottleneck-II admission
  // slot per remaining packet.
  sim::Duration BatchTime(uint64_t packets) const;

  // Steady-state admission period of the chain (the bottleneck stage's II
  // at its Fmax); capacity in packets/s is 1e9 / this.
  sim::Duration AdmissionPeriod() const;

 private:
  explicit MatchActionPipeline(ebpf::MapRegistry* maps) : vm_(maps) {}

  ebpf::Vm vm_;
  std::vector<MatchActionStageInfo> stages_;
  // Stage i's verified program, decoded once.
  std::vector<ebpf::Executable> programs_;
  size_t bottleneck_ = 0;
};

}  // namespace hyperion::fpga

#endif  // HYPERION_SRC_FPGA_MATCH_ACTION_H_
