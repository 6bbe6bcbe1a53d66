// AXI-stream interconnect timing.
//
// Figure 2's datapath stitches the FPGA's blocks together through
// MUX/DEMUX/arbiter trees on a wide AXI-stream bus. The model prices one
// transaction through that tree: a fixed arbitration latency plus the
// payload's transfer time over the bus.

#ifndef HYPERION_SRC_FPGA_AXI_H_
#define HYPERION_SRC_FPGA_AXI_H_

#include <cstdint>

#include "src/sim/time.h"

namespace hyperion::fpga {

// Latency of one `bytes` transaction: 12 ns through the mux tree, then the
// payload over a 512-bit bus at ~1 GHz.
constexpr sim::Duration AxiTransactionTime(uint64_t bytes) {
  constexpr sim::Duration kArbiterLatency = 12;
  constexpr double kBusGbps = 512.0;
  return kArbiterLatency + sim::TransferTime(bytes, kBusGbps);
}

}  // namespace hyperion::fpga

#endif  // HYPERION_SRC_FPGA_AXI_H_
