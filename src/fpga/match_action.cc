#include "src/fpga/match_action.h"

#include "src/ebpf/verifier.h"

namespace hyperion::fpga {

namespace {

// Match/action stages exchange a packet descriptor (not the payload) over
// the interconnect between regions.
constexpr uint64_t kDescriptorBytes = 64;

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
    Fabric* fabric, ebpf::MapRegistry* maps, std::vector<MatchActionStageSpec> stages,
    TenantId tenant) {
  if (stages.empty()) {
    return InvalidArgument("match/action pipeline needs at least one stage");
  }
  auto pipeline = std::unique_ptr<MatchActionPipeline>(new MatchActionPipeline(maps));
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
    next_region = region + 1;

    MatchActionStageInfo info;
    info.name = spec.program.name;
    info.region = region;
    info.initiation_interval = plan.InitiationInterval();
    info.critical_path_cycles = plan.CriticalPathCycles();
    info.mean_ilp = plan.MeanIlp();
    info.fmax_mhz = spec.codegen.fmax_mhz;
    pipeline->stages_.push_back(std::move(info));
    pipeline->programs_.push_back(ebpf::Decode(spec.program));
  }
  // Bottleneck: the stage with the longest admission period in wall time.
  for (size_t i = 1; i < pipeline->stages_.size(); ++i) {
    const auto period = [&](size_t s) {
      return sim::CyclesToTime(pipeline->stages_[s].initiation_interval,
                               pipeline->stages_[s].fmax_mhz);
    };
    if (period(i) > period(pipeline->bottleneck_)) {
      pipeline->bottleneck_ = i;
    }
  }
  return pipeline;
}

sim::Duration MatchActionPipeline::AdmissionPeriod() const {
  const MatchActionStageInfo& stage = stages_[bottleneck_];
  return sim::CyclesToTime(stage.initiation_interval, stage.fmax_mhz);
}

sim::Duration MatchActionPipeline::BatchTime(uint64_t packets) const {
  if (packets == 0) {
    return 0;
  }
  sim::Duration fill = 0;
  for (const MatchActionStageInfo& stage : stages_) {
    fill += sim::CyclesToTime(stage.critical_path_cycles, stage.fmax_mhz);
  }
  fill += static_cast<sim::Duration>(stages_.size() - 1) * AxiTransactionTime(kDescriptorBytes);
  return fill + (packets - 1) * AdmissionPeriod();
}

}  // namespace hyperion::fpga
