// PCIe topology model.
//
// Hyperion's blueprint (Figure 2) hosts a PCIe root complex *on the FPGA*
// and bifurcates its x16 lanes into 4 x4 links, one per NVMe device — so
// storage traffic never crosses a host root complex. The conventional
// architectures of Table 1 instead route every accelerator<->device transfer
// through the host root complex (and often through host DRAM). This module
// models both: a device tree with per-link generation/width, path
// resolution with hop counting, and transfer-latency computation. The DMA
// engine (dma.h) layers byte movement and counters on top.

#ifndef HYPERION_SRC_PCIE_TOPOLOGY_H_
#define HYPERION_SRC_PCIE_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/sim/time.h"

namespace hyperion::pcie {

using NodeId = uint32_t;
constexpr NodeId kInvalidNode = ~0u;

enum class NodeKind : uint8_t {
  kRootComplex,  // owns the hierarchy; the CPU (host) or FPGA (Hyperion)
  kEndpoint,     // NIC, NVMe device, GPU, FPGA-as-device, DRAM controller
};

// Per-lane bandwidth by PCIe generation, GB/s (after 128b/130b encoding).
double LanesGBps(int gen, int lanes);

struct LinkSpec {
  int gen = 3;     // PCIe generation (1..5 supported)
  int lanes = 4;   // x1/x2/x4/x8/x16
};

struct Node {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kEndpoint;
  std::string name;
  NodeId parent = kInvalidNode;  // kInvalidNode for the root complex
  LinkSpec uplink;               // link towards the parent
};

class Topology {
 public:
  // Creates the hierarchy root. Must be called exactly once, first.
  NodeId AddRootComplex(std::string name);
  NodeId AddEndpoint(std::string name, NodeId parent, LinkSpec uplink);

  const Node& node(NodeId id) const;
  size_t NodeCount() const { return nodes_.size(); }

  // Number of link traversals on the path a -> b (via their lowest common
  // ancestor): two endpoints under the root complex cross 2 links.
  Result<uint32_t> PathHops(NodeId a, NodeId b) const;

  // The bottleneck (minimum-bandwidth) link on the path, GB/s.
  Result<double> PathBandwidthGBps(NodeId a, NodeId b) const;

  // Latency for moving `bytes` from a to b: per-hop TLP forwarding latency
  // plus serialization on the bottleneck link.
  Result<sim::Duration> TransferLatency(NodeId a, NodeId b, uint64_t bytes) const;

  // Per-hop forwarding latency (root-complex store-and-forward).
  // ~150 ns per traversal is representative of Gen3/Gen4 parts.
  static constexpr sim::Duration kHopLatency = 150;

 private:
  Result<std::vector<NodeId>> Path(NodeId a, NodeId b) const;

  std::vector<Node> nodes_;
};

}  // namespace hyperion::pcie

#endif  // HYPERION_SRC_PCIE_TOPOLOGY_H_
