// Hyperion: the CPU-free DPU (the paper's core contribution, Figure 2).
//
// Composition of every substrate in this repository into the blueprint's
// schematic: 2x100 GbE attachment to the data-center fabric, an FPGA fabric
// with eHDL accelerator slots, an FPGA-hosted PCIe root complex with four
// NVMe namespaces behind bifurcated x4 links, DRAM and HBM tiers, the
// single-level segment-based object store on top, and the eBPF toolchain (verifier -> pipeline compiler) as
// the programming model. There is no host CPU object anywhere in this
// class — that is the point.
//
// Lifecycle per §2: power-on -> JTAG self-test -> static shell bitstream ->
// segment-table recovery from the boot area -> ready. Tenant logic arrives
// over the network as verified eBPF through the OS-shell control path and
// is placed into a fabric slot by partial reconfiguration.

#ifndef HYPERION_SRC_DPU_HYPERION_H_
#define HYPERION_SRC_DPU_HYPERION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/ebpf/hdl_codegen.h"
#include "src/ebpf/maps.h"
#include "src/ebpf/verifier.h"
#include "src/ebpf/vm.h"
#include "src/fpga/fabric.h"
#include "src/fpga/scheduler.h"
#include "src/mem/object_store.h"
#include "src/net/fabric.h"
#include "src/nvme/controller.h"
#include "src/pcie/dma.h"
#include "src/pcie/topology.h"
#include "src/sim/energy.h"
#include "src/sim/engine.h"
#include "src/dpu/rpc.h"

namespace hyperion::dpu {

struct HyperionConfig {
  uint32_t nvme_devices = 4;
  uint64_t lbas_per_device = 262144;  // 1 GiB per device
  uint64_t dram_bytes = 256ull << 20;
  uint64_t hbm_bytes = 64ull << 20;
  fpga::FabricConfig fabric;
  double link_gbps = 100.0;
  // Shared secret for the control path ("authorized, encrypted FPGA
  // bitstreams over a certain control network port", §2.2).
  std::string control_token = "hyperion-dev-token";
};

using AcceleratorId = uint32_t;

class Hyperion {
 public:
  Hyperion(sim::Engine* engine, net::Fabric* net, HyperionConfig config = HyperionConfig());

  // Stand-alone boot: self-tests, shell configuration, single-level-store
  // recovery. Returns the boot latency. Idempotent.
  Result<sim::Duration> Boot();
  bool booted() const { return booted_; }

  net::HostId host_id() const { return host_id_; }
  sim::Engine* engine() { return engine_; }

  // -- OS-shell control path -------------------------------------------------

  // Places a raw bitstream into a fabric slot. Token-gated.
  Result<fpga::RegionId> LoadBitstream(std::string_view token, fpga::Bitstream bitstream);

  // Full compiler-as-OS path: verify the program, compile it to a pipeline,
  // synthesize a bitstream descriptor, and place it. Token-gated; rejected
  // programs never touch the fabric.
  Result<AcceleratorId> DeployAccelerator(std::string_view token, const ebpf::Program& program,
                                          fpga::TenantId tenant);

  // Run-to-completion datapath: one packet/record through a deployed
  // accelerator. Functional result comes from the instrumented interpreter;
  // time is charged from the pipeline plan's cycle count at the slot's
  // Fmax. Returns the program's r0.
  Result<uint64_t> ProcessPacket(AcceleratorId accel, MutableByteSpan packet);

  struct AcceleratorInfo {
    fpga::RegionId region;
    uint32_t pipeline_stages;
    double mean_ilp;
    uint64_t packets_processed;
  };
  Result<AcceleratorInfo> DescribeAccelerator(AcceleratorId accel) const;

  // Tears an accelerator down: unpins its fabric region (making it
  // evictable) and retires the id. Token-gated like deployment.
  Status UndeployAccelerator(std::string_view token, AcceleratorId accel);

  // Tenant map creation through the control path; the map is owned by
  // `tenant` unless the spec says kSharedMap. Returns the map id programs
  // reference via ld_map_fd.
  Result<uint32_t> CreateMap(std::string_view token, ebpf::MapSpec spec);

  // -- Components --------------------------------------------------------------

  nvme::Controller& nvme() { return *nvme_; }
  mem::ObjectStore& store() { return *store_; }
  fpga::Fabric& fabric() { return *fabric_; }
  fpga::SlotScheduler& scheduler() { return *scheduler_; }
  ebpf::MapRegistry& maps() { return maps_; }
  sim::EnergyModel& energy() { return energy_; }
  RpcServer& rpc() { return rpc_; }
  const pcie::Topology& pcie_topology() const { return pcie_; }
  const HyperionConfig& config() const { return config_; }

  // Charges `cycles` of fabric datapath work (and its energy).
  Status ChargeFabric(fpga::RegionId region, uint64_t cycles);

  // Wires `injector` into every on-board substrate with injection points
  // (NVMe controller, PCIe DMA engine, FPGA fabric). Pass nullptr to
  // detach. The injector must outlive its use by the DPU.
  void InstallFaultInjector(sim::FaultInjector* injector);

  // Wires `tracer` into every instrumented substrate (NVMe controller,
  // PCIe DMA, FPGA fabric + slot scheduler, RPC server on this engine).
  // Pass nullptr to detach. The tracer must outlive its use by the DPU.
  void InstallTracer(obs::Tracer* tracer);

 private:
  struct Accelerator {
    ebpf::Executable exe;  // the verified program, decoded once
    ebpf::PipelinePlan plan;
    fpga::RegionId region = 0;
    fpga::TenantId tenant = fpga::kNoTenant;
    uint64_t packets = 0;
    bool retired = false;
  };

  sim::Engine* engine_;
  net::Fabric* net_;
  HyperionConfig config_;
  net::HostId host_id_;

  pcie::Topology pcie_;
  std::unique_ptr<pcie::DmaEngine> dma_;
  std::unique_ptr<nvme::Controller> nvme_;
  std::unique_ptr<mem::ObjectStore> store_;
  std::unique_ptr<fpga::Fabric> fabric_;
  std::unique_ptr<fpga::SlotScheduler> scheduler_;
  ebpf::MapRegistry maps_;
  std::unique_ptr<ebpf::Vm> vm_;
  sim::EnergyModel energy_;
  RpcServer rpc_;

  std::vector<Accelerator> accelerators_;
  bool booted_ = false;
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_HYPERION_H_
