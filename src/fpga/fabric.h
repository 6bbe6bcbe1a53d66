// FPGA fabric model: reconfigurable regions + ICAP partial reconfiguration.
//
// The paper leans on three FPGA properties (§2): application-specific
// reconfigurability, coarse-grained *spatial* multiplexing at 10-100 ms
// partial-reconfiguration timescales, and deterministic post-configuration
// performance ("once a bitstream has been sent, the circuit runs a certain
// clock frequency without any outside interference"). The model exposes all
// three: regions (slots) hold bitstreams; loading one streams its bytes
// through the ICAP at its real-world bandwidth (so latency lands in the
// paper's 10-100 ms band for multi-MB partial bitstreams); and a loaded
// region executes work at its own Fmax regardless of its neighbours.

#ifndef HYPERION_SRC_FPGA_FABRIC_H_
#define HYPERION_SRC_FPGA_FABRIC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/stats.h"

namespace hyperion::fpga {

using RegionId = uint32_t;
using TenantId = uint32_t;
constexpr TenantId kNoTenant = ~0u;

// A (partial) bitstream: the unit of deployment onto a region.
struct Bitstream {
  std::string name;
  uint64_t size_bytes = 4 * 1024 * 1024;  // typical partial bitstream, ~4 MiB
  uint32_t slices = 1;                    // region-capacity units consumed
  double fmax_mhz = 250.0;                // post-route clock of this design
  TenantId tenant = kNoTenant;
};

struct FabricConfig {
  uint32_t regions = 5;            // eHDL accelerator slots of Figure 2
  uint32_t slices_per_region = 4;  // abstract capacity units
  double icap_mbps = 400.0;        // ICAP throughput (bytes/s * 1e-6)
  sim::Duration reconfig_fixed_overhead = 2 * sim::kMillisecond;  // shutdown/handshake
};

class Fabric {
 public:
  Fabric(sim::Engine* engine, FabricConfig config = FabricConfig());

  uint32_t RegionCount() const { return config_.regions; }
  const FabricConfig& config() const { return config_; }

  // Loads `bitstream` into `region` via partial dynamic reconfiguration
  // through the ICAP; advances virtual time by the reconfiguration latency
  // and returns it. Fails if the bitstream needs more slices than a region
  // has. Any previously loaded design is evicted.
  Result<sim::Duration> Reconfigure(RegionId region, Bitstream bitstream);

  bool IsLoaded(RegionId region) const;
  Result<Bitstream> LoadedBitstream(RegionId region) const;

  // Deterministic execution: `cycles` of work on the design in `region`
  // completes in exactly cycles/fmax — neighbours cannot perturb it.
  Result<sim::Duration> Execute(RegionId region, uint64_t cycles);

  // Pure model of the reconfiguration latency for a bitstream size.
  sim::Duration ReconfigLatency(uint64_t bitstream_bytes) const;

  // -- Fault injection & recovery -------------------------------------------

  // Hooks this fabric to a fault injector (null detaches). Injected fault:
  // a partial reconfiguration that aborts mid-bitstream, leaving the region
  // failed (unusable) until Repair() — the scheduler migrates around it.
  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  // Attaches a tracer (null detaches): Reconfigure emits an fpga.reconfig
  // span (also covering the half-paid latency of an aborted load).
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // True when the region took a reconfiguration fault and was not repaired.
  bool IsFailed(RegionId region) const;

  // Returns a failed region to service (models a shell-level slot scrub).
  Status Repair(RegionId region);

  const sim::Histogram& reconfig_latencies() const { return reconfig_hist_; }
  const sim::Counters& counters() const { return counters_; }

 private:
  sim::Engine* engine_;
  FabricConfig config_;
  std::vector<std::optional<Bitstream>> regions_;
  std::vector<uint8_t> failed_;
  sim::FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  sim::Histogram reconfig_hist_;
  sim::Counters counters_;
};

}  // namespace hyperion::fpga

#endif  // HYPERION_SRC_FPGA_FABRIC_H_
