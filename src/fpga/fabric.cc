#include "src/fpga/fabric.h"

#include "src/common/check.h"

namespace hyperion::fpga {

Fabric::Fabric(sim::Engine* engine, FabricConfig config)
    : engine_(engine), config_(config), regions_(config.regions), failed_(config.regions, 0) {
  CHECK_GT(config_.regions, 0u);
  CHECK_GT(config_.icap_mbps, 0.0);
}

sim::Duration Fabric::ReconfigLatency(uint64_t bitstream_bytes) const {
  const double seconds = static_cast<double>(bitstream_bytes) / (config_.icap_mbps * 1e6);
  return config_.reconfig_fixed_overhead + static_cast<sim::Duration>(seconds * 1e9);
}

Result<sim::Duration> Fabric::Reconfigure(RegionId region, Bitstream bitstream) {
  if (region >= regions_.size()) {
    return InvalidArgument("no such region");
  }
  if (bitstream.slices > config_.slices_per_region) {
    return ResourceExhausted("bitstream exceeds region capacity");
  }
  if (bitstream.fmax_mhz <= 0.0) {
    return InvalidArgument("bitstream must declare a positive Fmax");
  }
  if (failed_[region]) {
    return Unavailable("region marked failed; repair it first");
  }
  const sim::Duration latency = ReconfigLatency(bitstream.size_bytes);
  obs::ScopedSpan span(tracer_, engine_, obs::Subsystem::kFpga, "fpga.reconfig");
  if (injector_ != nullptr && injector_->ShouldInject(sim::FaultSite::kFpgaReconfigFail)) {
    // The ICAP stream aborts partway: some frames of the previous design
    // are already overwritten, so the slot holds neither design and must be
    // scrubbed before it can be used again.
    engine_->Advance(latency / 2);
    regions_[region].reset();
    failed_[region] = 1;
    counters_.Increment("reconfig_failures");
    return Unavailable("partial reconfiguration aborted");
  }
  engine_->Advance(latency);
  regions_[region] = std::move(bitstream);
  reconfig_hist_.Record(latency);
  counters_.Increment("reconfigurations");
  return latency;
}

bool Fabric::IsFailed(RegionId region) const {
  return region < failed_.size() && failed_[region] != 0;
}

Status Fabric::Repair(RegionId region) {
  if (region >= failed_.size()) {
    return InvalidArgument("no such region");
  }
  if (!failed_[region]) {
    return InvalidArgument("region is not failed");
  }
  failed_[region] = 0;
  counters_.Increment("region_repairs");
  return Status::Ok();
}

bool Fabric::IsLoaded(RegionId region) const {
  return region < regions_.size() && regions_[region].has_value();
}

Result<Bitstream> Fabric::LoadedBitstream(RegionId region) const {
  if (region >= regions_.size()) {
    return InvalidArgument("no such region");
  }
  if (!regions_[region].has_value()) {
    return NotFound("region is empty");
  }
  return *regions_[region];
}

Result<sim::Duration> Fabric::Execute(RegionId region, uint64_t cycles) {
  ASSIGN_OR_RETURN(Bitstream bs, LoadedBitstream(region));
  const sim::Duration t = sim::CyclesToTime(cycles, bs.fmax_mhz);
  engine_->Advance(t);
  counters_.Add("cycles_executed", cycles);
  return t;
}

}  // namespace hyperion::fpga
