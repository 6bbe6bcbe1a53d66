#include "src/pcie/dma.h"

namespace hyperion::pcie {

Result<sim::Duration> DmaEngine::Transfer(NodeId src, NodeId dst, uint64_t bytes) {
  return DoTransfer(src, dst, bytes, "dma");
}

Result<sim::Duration> DmaEngine::TransferPeerToPeer(NodeId src, NodeId dst, uint64_t bytes) {
  return DoTransfer(src, dst, bytes, "p2p_dma");
}

Result<sim::Duration> DmaEngine::DoTransfer(NodeId src, NodeId dst, uint64_t bytes,
                                            const char* kind) {
  ASSIGN_OR_RETURN(sim::Duration latency, topology_->TransferLatency(src, dst, bytes));
  ASSIGN_OR_RETURN(uint32_t hops, topology_->PathHops(src, dst));
  obs::ScopedSpan span(tracer_, engine_, obs::Subsystem::kPcie, "pcie.dma");
  // Injected link drops: each one costs a retrain, after which the
  // data-link layer replays the outstanding TLPs — recovery is below the
  // software's horizon unless the link refuses to come back.
  sim::Duration retrain_total = 0;
  for (int drops = 0;
       injector_ != nullptr && injector_->ShouldInject(sim::FaultSite::kPcieLinkDrop);) {
    if (++drops > kMaxRetrains) {
      counters_.Add("pcie_link_down", 1);
      return Unavailable("PCIe link down: retrain limit exceeded");
    }
    {
      obs::ScopedSpan retrain(tracer_, engine_, obs::Subsystem::kPcie, "pcie.retrain");
      engine_->Advance(kRetrainLatency);
    }
    retrain_total += kRetrainLatency;
    counters_.Add("pcie_link_drops", 1);
  }
  if (retrain_total > 0) {
    counters_.Add("pcie_replays", 1);
    counters_.Add("pcie_retrain_ns", retrain_total);
  }
  engine_->Advance(latency);
  counters_.Add(std::string(kind) + "_transfers", 1);
  counters_.Add(std::string(kind) + "_bytes", bytes);
  counters_.Add("pcie_hops", hops);
  return retrain_total + latency;
}

}  // namespace hyperion::pcie
