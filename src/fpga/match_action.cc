#include "src/fpga/match_action.h"

#include "src/common/check.h"
#include "src/ebpf/verifier.h"

namespace hyperion::fpga {

namespace {

// Match/action stages exchange a packet descriptor (not the payload) over
// the interconnect between regions.
constexpr uint64_t kDescriptorBytes = 64;

// Per-stage scratch/table window in the bus address map, granted at
// configuration time (§2.5: loader-enforced isolation instead of an MMU).
constexpr uint64_t kStageWindowBase = 0x4000'0000ull;
constexpr uint64_t kStageWindowBytes = 1ull << 20;

Bitstream StageBitstream(const ebpf::Program& program, const ebpf::CodegenOptions& options,
                         TenantId tenant) {
  Bitstream bitstream;
  bitstream.name = "ma/" + program.name;
  // Partial bitstream scale: a fixed shell interface plus per-instruction
  // logic — keeps reconfiguration in the paper's 10-100 ms band without
  // multi-MB loads for a 20-instruction filter.
  bitstream.size_bytes = 512 * 1024 + 4096ull * program.insns.size();
  bitstream.slices = 1 + static_cast<uint32_t>(program.insns.size() / 64);
  bitstream.fmax_mhz = options.fmax_mhz;
  bitstream.tenant = tenant;
  return bitstream;
}

}  // namespace

Result<std::unique_ptr<MatchActionPipeline>> MatchActionPipeline::Create(
    Fabric* fabric, AxiInterconnect* axi, ebpf::MapRegistry* maps,
    std::vector<MatchActionStageSpec> stages, TenantId tenant) {
  if (stages.empty()) {
    return InvalidArgument("match/action pipeline needs at least one stage");
  }
  auto pipeline =
      std::unique_ptr<MatchActionPipeline>(new MatchActionPipeline(fabric, axi, maps));
  RegionId next_region = 0;
  for (MatchActionStageSpec& spec : stages) {
    // Gate: unverifiable programs are rejected before any plan is built.
    RETURN_IF_ERROR(ebpf::Verify(spec.program, *maps).status());
    ASSIGN_OR_RETURN(ebpf::PipelinePlan plan,
                     ebpf::CompileToPipeline(spec.program, spec.codegen));
    // Claim the next unloaded, healthy region.
    RegionId region = next_region;
    while (region < fabric->RegionCount() && (fabric->IsLoaded(region) || fabric->IsFailed(region))) {
      ++region;
    }
    if (region >= fabric->RegionCount()) {
      return ResourceExhausted("no free fabric region for stage " + spec.program.name);
    }
    RETURN_IF_ERROR(
        fabric->Reconfigure(region, StageBitstream(spec.program, spec.codegen, tenant)).status());
    const uint64_t window_base = kStageWindowBase + uint64_t{region} * kStageWindowBytes;
    RETURN_IF_ERROR(axi->GrantWindow(region, window_base, window_base + kStageWindowBytes));
    next_region = region + 1;

    Stage stage;
    stage.info.name = spec.program.name;
    stage.info.region = region;
    stage.info.initiation_interval = plan.InitiationInterval();
    stage.info.critical_path_cycles = plan.CriticalPathCycles();
    stage.info.mean_ilp = plan.MeanIlp();
    stage.info.fmax_mhz = spec.codegen.fmax_mhz;
    stage.program = std::move(spec.program);
    pipeline->stages_.push_back(std::move(stage));
  }
  // Bottleneck: the stage with the longest admission period in wall time.
  for (size_t i = 1; i < pipeline->stages_.size(); ++i) {
    const auto period = [&](size_t s) {
      return sim::CyclesToTime(pipeline->stages_[s].info.initiation_interval,
                               pipeline->stages_[s].info.fmax_mhz);
    };
    if (period(i) > period(pipeline->bottleneck_)) {
      pipeline->bottleneck_ = i;
    }
  }
  return pipeline;
}

Result<uint64_t> MatchActionPipeline::RunStage(size_t i, MutableByteSpan ctx) {
  CHECK_LT(i, stages_.size());
  ASSIGN_OR_RETURN(ebpf::ExecResult result, vm_.Run(stages_[i].program, ctx));
  return result.return_value;
}

sim::Duration MatchActionPipeline::AdmissionPeriod() const {
  const Stage& stage = stages_[bottleneck_];
  return sim::CyclesToTime(stage.info.initiation_interval, stage.info.fmax_mhz);
}

sim::Duration MatchActionPipeline::BatchTime(uint64_t packets) const {
  if (packets == 0) {
    return 0;
  }
  sim::Duration fill = 0;
  for (const Stage& stage : stages_) {
    fill += sim::CyclesToTime(stage.info.critical_path_cycles, stage.info.fmax_mhz);
  }
  fill += static_cast<sim::Duration>(stages_.size() - 1) *
          axi_->TransactionTime(kDescriptorBytes);
  return fill + (packets - 1) * AdmissionPeriod();
}

uint64_t MatchActionPipeline::BatchCycles(uint64_t packets) const {
  if (packets == 0) {
    return 0;
  }
  const Stage& stage = stages_[bottleneck_];
  return stage.info.critical_path_cycles +
         (packets - 1) * uint64_t{stage.info.initiation_interval};
}

}  // namespace hyperion::fpga
