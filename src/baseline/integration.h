// Table 1 reproduction (experiment E1): the pairwise accelerator
// integration patterns of the state of the art, priced end to end.
//
// The paper's Table 1 is qualitative: every prior system integrates at most
// two of {network, storage, compute} and leaves the CPU translating and
// mediating for the third. This module makes that quantitative. For each
// integration class it builds the corresponding host PCIe topology and
// composes the network-to-durable-storage transfer path out of DMA legs and
// host-CPU primitives, reporting CPU touches, DMA legs, PCIe hops, and
// end-to-end latency — the same row set the bench prints against Hyperion.

#ifndef HYPERION_SRC_BASELINE_INTEGRATION_H_
#define HYPERION_SRC_BASELINE_INTEGRATION_H_

#include <cstdint>
#include <string>

#include "src/baseline/host.h"
#include "src/common/result.h"
#include "src/sim/engine.h"

namespace hyperion::baseline {

enum class IntegrationKind {
  kGpuWithNetwork,     // GPUnet/GPUDirect-RDMA style: no storage integration
  kGpuWithStorage,     // GPUDirect-Storage/SPIN: CPU-assisted FS, no network
  kFpgaWithNetwork,    // Catapult/hXDP: no storage integration
  kStorageWithNetwork, // NVMe-oF: block protocol only, CPU runs the target
  kStorageWithAccel,   // CSD/INSIDER: CPU does FS + network
  kCommercialDpu,      // BlueField-style SoC: embedded ARM cores on the path
  kHyperion,           // this paper: unified, no CPU anywhere
};

std::string_view IntegrationName(IntegrationKind kind);

struct PathReport {
  IntegrationKind kind;
  uint32_t cpu_touches = 0;   // syscalls+interrupts+stack traversals+copies
  uint32_t dma_legs = 0;
  uint32_t pcie_hops = 0;
  sim::Duration latency = 0;  // end-to-end for the transfer
  sim::Duration cpu_busy = 0; // host CPU time consumed
};

// Prices moving `bytes` arriving from the network into durable storage
// (with any required accelerator touch) under the given integration style.
Result<PathReport> PriceNetToStorage(IntegrationKind kind, uint64_t bytes);

}  // namespace hyperion::baseline

#endif  // HYPERION_SRC_BASELINE_INTEGRATION_H_
