#include "src/baseline/integration.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/nvme/flash.h"
#include "src/pcie/dma.h"
#include "src/pcie/topology.h"

namespace hyperion::baseline {

std::string_view IntegrationName(IntegrationKind kind) {
  switch (kind) {
    case IntegrationKind::kGpuWithNetwork:
      return "gpu_with_network";
    case IntegrationKind::kGpuWithStorage:
      return "gpu_with_storage";
    case IntegrationKind::kFpgaWithNetwork:
      return "fpga_with_network";
    case IntegrationKind::kStorageWithNetwork:
      return "storage_with_network";
    case IntegrationKind::kStorageWithAccel:
      return "storage_with_accelerator";
    case IntegrationKind::kCommercialDpu:
      return "commercial_dpu";
    case IntegrationKind::kHyperion:
      return "hyperion";
  }
  return "?";
}

namespace {

struct PathContext {
  sim::Engine engine;
  pcie::Topology topology;
  pcie::NodeId root = 0;
  pcie::NodeId nic = 0;
  pcie::NodeId accel = 0;
  pcie::NodeId dram = 0;
  pcie::NodeId ssd = 0;
  std::unique_ptr<pcie::DmaEngine> dma;
  std::unique_ptr<HostCpu> cpu;
  uint32_t cpu_touches = 0;
  uint32_t dma_legs = 0;

  void BuildHostTopology() {
    root = topology.AddRootComplex("host_rc");
    dram = topology.AddEndpoint("dram", root, {5, 16});
    nic = topology.AddEndpoint("nic", root, {4, 8});
    accel = topology.AddEndpoint("accel", root, {4, 16});
    ssd = topology.AddEndpoint("nvme", root, {3, 4});
    dma = std::make_unique<pcie::DmaEngine>(&engine, &topology);
    cpu = std::make_unique<HostCpu>(&engine);
  }

  void Dma(pcie::NodeId a, pcie::NodeId b, uint64_t bytes) {
    CHECK_OK(dma->Transfer(a, b, bytes));
    ++dma_legs;
  }
  void P2p(pcie::NodeId a, pcie::NodeId b, uint64_t bytes) {
    CHECK_OK(dma->TransferPeerToPeer(a, b, bytes));
    ++dma_legs;
  }
  void Interrupt() {
    cpu->Interrupt();
    ++cpu_touches;
  }
  void Syscall() {
    cpu->Syscall();
    ++cpu_touches;
  }
  void Copy(uint64_t bytes) {
    cpu->Copy(bytes);
    ++cpu_touches;
  }
  void NetStack(uint64_t bytes) {
    const uint64_t packets = std::max<uint64_t>(1, bytes / 1460);
    for (uint64_t p = 0; p < packets; ++p) {
      cpu->NetStackPacket();
    }
    ++cpu_touches;
  }
  void BlockStack(uint64_t bytes) {
    const uint64_t ios = std::max<uint64_t>(1, bytes / (128 * 1024));
    for (uint64_t i = 0; i < ios; ++i) {
      cpu->BlockStackIo();
    }
    ++cpu_touches;
  }
  // NVMe program time on the media (same flash model everywhere).
  void FlashWrite(uint64_t bytes) {
    nvme::FlashDevice flash(1u << 20);
    const auto blocks =
        static_cast<uint32_t>((bytes + nvme::kLbaSize - 1) / nvme::kLbaSize);
    engine.Advance(flash.ServiceTime(0, std::max<uint32_t>(1, blocks), /*is_write=*/true,
                                     engine.Now()));
  }

  PathReport Finish(IntegrationKind kind) {
    PathReport report;
    report.kind = kind;
    report.cpu_touches = cpu_touches;
    report.dma_legs = dma_legs;
    report.pcie_hops = static_cast<uint32_t>(dma->counters().Get("pcie_hops"));
    report.latency = engine.Now();
    report.cpu_busy = cpu->BusyTime();
    return report;
  }
};

}  // namespace

Result<PathReport> PriceNetToStorage(IntegrationKind kind, uint64_t bytes) {
  PathContext ctx;
  switch (kind) {
    case IntegrationKind::kGpuWithNetwork: {
      // GPUDirect RDMA: NIC -> GPU P2P is clean, but persistence needs the
      // host: GPU -> DRAM, kernel write path, DRAM -> SSD.
      ctx.BuildHostTopology();
      ctx.P2p(ctx.nic, ctx.accel, bytes);
      ctx.Dma(ctx.accel, ctx.dram, bytes);
      ctx.Interrupt();
      ctx.Syscall();
      ctx.Copy(bytes);
      ctx.BlockStack(bytes);
      ctx.Dma(ctx.dram, ctx.ssd, bytes);
      ctx.FlashWrite(bytes);
      return ctx.Finish(kind);
    }
    case IntegrationKind::kGpuWithStorage: {
      // GPUDirect Storage: SSD <-> GPU P2P, but network lands in the kernel
      // first, and the CPU resolves file offsets.
      ctx.BuildHostTopology();
      ctx.Dma(ctx.nic, ctx.dram, bytes);
      ctx.Interrupt();
      ctx.NetStack(bytes);
      ctx.Syscall();
      ctx.Copy(bytes);
      ctx.Dma(ctx.dram, ctx.accel, bytes);
      ctx.Syscall();  // CPU performs the FS translation for the P2P leg
      ctx.P2p(ctx.accel, ctx.ssd, bytes);
      ctx.FlashWrite(bytes);
      return ctx.Finish(kind);
    }
    case IntegrationKind::kFpgaWithNetwork: {
      // Catapult-style bump-in-the-wire FPGA NIC: network is free of the
      // CPU, storage is not.
      ctx.BuildHostTopology();
      // Wire -> FPGA is on-card; first PCIe leg is FPGA -> DRAM.
      ctx.Dma(ctx.accel, ctx.dram, bytes);
      ctx.Interrupt();
      ctx.Syscall();
      ctx.Copy(bytes);
      ctx.BlockStack(bytes);
      ctx.Dma(ctx.dram, ctx.ssd, bytes);
      ctx.FlashWrite(bytes);
      return ctx.Finish(kind);
    }
    case IntegrationKind::kStorageWithNetwork: {
      // NVMe-oF target: kernel target stack bridges NIC and SSD; no
      // userspace copy, but interrupts + block protocol on the CPU.
      ctx.BuildHostTopology();
      ctx.Dma(ctx.nic, ctx.dram, bytes);
      ctx.Interrupt();
      ctx.NetStack(bytes);
      ctx.BlockStack(bytes);
      ctx.Dma(ctx.dram, ctx.ssd, bytes);
      ctx.FlashWrite(bytes);
      return ctx.Finish(kind);
    }
    case IntegrationKind::kStorageWithAccel: {
      // Computational storage: the device computes, but ingest from the
      // network crosses the full kernel path first.
      ctx.BuildHostTopology();
      ctx.Dma(ctx.nic, ctx.dram, bytes);
      ctx.Interrupt();
      ctx.NetStack(bytes);
      ctx.Syscall();
      ctx.Copy(bytes);
      ctx.Syscall();
      ctx.Copy(bytes);
      ctx.BlockStack(bytes);
      ctx.Dma(ctx.dram, ctx.ssd, bytes);
      ctx.FlashWrite(bytes);
      return ctx.Finish(kind);
    }
    case IntegrationKind::kCommercialDpu: {
      // BlueField-style SoC: the NIC and SSD hang off the DPU, so the path
      // avoids the host — but embedded ARM cores run a kernel stack on
      // every request, and each software step is ~1.8x slower than x86.
      ctx.BuildHostTopology();
      HostCostParams arm;
      arm.syscall = static_cast<sim::Duration>(arm.syscall * 1.8);
      arm.interrupt = static_cast<sim::Duration>(arm.interrupt * 1.8);
      arm.net_stack_per_packet = static_cast<sim::Duration>(arm.net_stack_per_packet * 1.8);
      arm.block_stack_per_io = static_cast<sim::Duration>(arm.block_stack_per_io * 1.8);
      arm.memcpy_gbps /= 1.8;
      ctx.cpu = std::make_unique<HostCpu>(&ctx.engine, arm);
      ctx.Dma(ctx.nic, ctx.dram, bytes);  // into DPU-local DRAM
      // Embedded cores: cheaper than x86 but still software on the path.
      ctx.Interrupt();
      ctx.NetStack(bytes);
      ctx.BlockStack(bytes);
      ctx.Dma(ctx.dram, ctx.ssd, bytes);
      ctx.FlashWrite(bytes);
      return ctx.Finish(kind);
    }
    case IntegrationKind::kHyperion: {
      // Unified: the wire terminates in the fabric; one DMA through the
      // FPGA-hosted root complex to flash. No CPU exists to touch it.
      ctx.root = ctx.topology.AddRootComplex("fpga_rc");
      ctx.ssd = ctx.topology.AddEndpoint("nvme0", ctx.root, {3, 4});
      ctx.dma = std::make_unique<pcie::DmaEngine>(&ctx.engine, &ctx.topology);
      ctx.cpu = std::make_unique<HostCpu>(&ctx.engine);
      ctx.Dma(ctx.root, ctx.ssd, bytes);
      ctx.FlashWrite(bytes);
      return ctx.Finish(kind);
    }
  }
  return InvalidArgument("unknown integration kind");
}

}  // namespace hyperion::baseline
