#include "src/pcie/topology.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::pcie {

double LanesGBps(int gen, int lanes) {
  CHECK_GE(gen, 1);
  CHECK_LE(gen, 5);
  CHECK_GT(lanes, 0);
  // Effective per-lane payload bandwidth in GB/s after encoding overhead.
  static constexpr double kPerLane[] = {0.0, 0.25, 0.5, 0.985, 1.969, 3.938};
  return kPerLane[gen] * lanes;
}

NodeId Topology::AddRootComplex(std::string name) {
  CHECK(nodes_.empty()) << "root complex must be the first node";
  Node n;
  n.id = 0;
  n.kind = NodeKind::kRootComplex;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  return 0;
}

NodeId Topology::AddEndpoint(std::string name, NodeId parent, LinkSpec uplink) {
  CHECK_LT(parent, nodes_.size());
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = NodeKind::kEndpoint;
  n.name = std::move(name);
  n.parent = parent;
  n.uplink = uplink;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

const Node& Topology::node(NodeId id) const {
  CHECK_LT(id, nodes_.size());
  return nodes_[id];
}

Result<std::vector<NodeId>> Topology::Path(NodeId a, NodeId b) const {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    return InvalidArgument("unknown PCIe node id");
  }
  if (a == b) {
    return std::vector<NodeId>{a};
  }
  // Collect ancestor chains up to the root, then splice at the lowest
  // common ancestor.
  auto chain = [this](NodeId n) {
    std::vector<NodeId> c;
    for (NodeId cur = n; cur != kInvalidNode; cur = nodes_[cur].parent) {
      c.push_back(cur);
    }
    return c;  // n ... root
  };
  std::vector<NodeId> ca = chain(a);
  std::vector<NodeId> cb = chain(b);
  // Walk back from the root while the chains agree.
  size_t ia = ca.size();
  size_t ib = cb.size();
  while (ia > 0 && ib > 0 && ca[ia - 1] == cb[ib - 1]) {
    --ia;
    --ib;
  }
  // Path: a up to (and including) LCA, then down to b.
  std::vector<NodeId> path(ca.begin(), ca.begin() + static_cast<ptrdiff_t>(ia + 1));
  for (size_t i = ib; i-- > 0;) {
    path.push_back(cb[i]);
  }
  return path;
}

Result<uint32_t> Topology::PathHops(NodeId a, NodeId b) const {
  ASSIGN_OR_RETURN(std::vector<NodeId> path, Path(a, b));
  return static_cast<uint32_t>(path.size() - 1);
}

Result<double> Topology::PathBandwidthGBps(NodeId a, NodeId b) const {
  ASSIGN_OR_RETURN(std::vector<NodeId> path, Path(a, b));
  if (path.size() < 2) {
    return InvalidArgument("no link on a self-path");
  }
  double min_bw = 1e18;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    // Each edge is the uplink of whichever of the two nodes is the child.
    const Node& x = nodes_[path[i]];
    const Node& y = nodes_[path[i + 1]];
    const Node& child = x.parent == y.id ? x : y;
    DCHECK(child.parent == (x.parent == y.id ? y.id : x.id));
    min_bw = std::min(min_bw, LanesGBps(child.uplink.gen, child.uplink.lanes));
  }
  return min_bw;
}

Result<sim::Duration> Topology::TransferLatency(NodeId a, NodeId b, uint64_t bytes) const {
  ASSIGN_OR_RETURN(uint32_t hops, PathHops(a, b));
  if (hops == 0) {
    return sim::Duration{0};
  }
  ASSIGN_OR_RETURN(double bw, PathBandwidthGBps(a, b));
  const auto serialization =
      static_cast<sim::Duration>(static_cast<double>(bytes) / (bw * 1e9) * 1e9);
  return kHopLatency * hops + serialization;
}

}  // namespace hyperion::pcie
