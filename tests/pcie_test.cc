// Unit tests for the PCIe topology + DMA models, including the two
// topologies experiment E1 contrasts: host-centric and Hyperion-style.

#include <gtest/gtest.h>

#include "src/pcie/dma.h"
#include "src/pcie/topology.h"
#include "src/sim/engine.h"

namespace hyperion::pcie {
namespace {

TEST(TopologyTest, LaneBandwidthTable) {
  EXPECT_NEAR(LanesGBps(3, 16), 15.76, 0.01);  // Gen3 x16
  EXPECT_NEAR(LanesGBps(3, 4), 3.94, 0.01);    // Gen3 x4
  EXPECT_NEAR(LanesGBps(4, 4), 7.876, 0.01);
}

TEST(TopologyTest, SelfPathHasZeroHops) {
  Topology topo;
  NodeId rc = topo.AddRootComplex("rc");
  EXPECT_EQ(*topo.PathHops(rc, rc), 0u);
}

TEST(TopologyTest, EndpointToRootIsOneHop) {
  Topology topo;
  NodeId rc = topo.AddRootComplex("rc");
  NodeId nic = topo.AddEndpoint("nic", rc, {3, 8});
  EXPECT_EQ(*topo.PathHops(nic, rc), 1u);
}

TEST(TopologyTest, SiblingsCrossTwoLinks) {
  Topology topo;
  NodeId rc = topo.AddRootComplex("rc");
  NodeId a = topo.AddEndpoint("a", rc, {3, 4});
  NodeId b = topo.AddEndpoint("b", rc, {3, 4});
  EXPECT_EQ(*topo.PathHops(a, b), 2u);
}

TEST(TopologyTest, BottleneckBandwidthIsMinLink) {
  Topology topo;
  NodeId rc = topo.AddRootComplex("rc");
  NodeId wide = topo.AddEndpoint("wide", rc, {3, 16});
  NodeId narrow = topo.AddEndpoint("narrow", rc, {3, 1});
  EXPECT_NEAR(*topo.PathBandwidthGBps(wide, narrow), LanesGBps(3, 1), 1e-9);
}

TEST(TopologyTest, TransferLatencyScalesWithSize) {
  Topology topo;
  NodeId rc = topo.AddRootComplex("rc");
  NodeId dev = topo.AddEndpoint("dev", rc, {3, 4});
  const auto small = *topo.TransferLatency(dev, rc, 64);
  const auto large = *topo.TransferLatency(dev, rc, 1 << 20);
  EXPECT_LT(small, large);
  // 1 MiB at ~3.94 GB/s ~= 266 us; hop adds 150 ns.
  EXPECT_NEAR(static_cast<double>(large), 1e6 * (1 << 20) / (3.94 * 1e9) * 1e3, 5e3);
}

TEST(TopologyTest, UnknownNodeIsError) {
  Topology topo;
  topo.AddRootComplex("rc");
  EXPECT_FALSE(topo.PathHops(0, 99).ok());
}

TEST(DmaTest, TransferAdvancesClockAndCounts) {
  sim::Engine engine;
  Topology topo;
  NodeId rc = topo.AddRootComplex("rc");
  NodeId nic = topo.AddEndpoint("nic", rc, {3, 8});
  NodeId ssd = topo.AddEndpoint("ssd", rc, {3, 4});
  DmaEngine dma(&engine, &topo);
  auto latency = dma.Transfer(nic, ssd, 4096);
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(engine.Now(), *latency);
  EXPECT_EQ(dma.counters().Get("dma_transfers"), 1u);
  EXPECT_EQ(dma.counters().Get("dma_bytes"), 4096u);
  EXPECT_EQ(dma.counters().Get("pcie_hops"), 2u);
}

// The architectural point of E1: a host-mediated NIC->DRAM->SSD bounce
// crosses more links (and therefore costs more) than Hyperion's direct
// FPGA-hosted path.
TEST(DmaTest, HostBounceCostsMoreThanDirectPath) {
  sim::Engine host_clock;
  Topology host;
  NodeId rc = host.AddRootComplex("host_rc");
  NodeId dram = host.AddEndpoint("dram", rc, {5, 16});  // memory bus stand-in
  NodeId nic = host.AddEndpoint("nic", rc, {3, 8});
  NodeId ssd = host.AddEndpoint("ssd", rc, {3, 4});
  DmaEngine host_dma(&host_clock, &host);
  // CPU-centric: NIC -> DRAM, then DRAM -> SSD.
  ASSERT_TRUE(host_dma.Transfer(nic, dram, 65536).ok());
  ASSERT_TRUE(host_dma.Transfer(dram, ssd, 65536).ok());
  const auto host_total = host_clock.Now();
  const auto host_hops = host_dma.counters().Get("pcie_hops");

  sim::Engine dpu_clock;
  Topology dpu;
  NodeId fpga = dpu.AddRootComplex("fpga_rc");
  NodeId dpu_ssd = dpu.AddEndpoint("nvme0", fpga, {3, 4});
  DmaEngine dpu_dma(&dpu_clock, &dpu);
  // Hyperion: data is already in the FPGA (it terminated the network);
  // one DMA to storage.
  ASSERT_TRUE(dpu_dma.Transfer(fpga, dpu_ssd, 65536).ok());
  const auto dpu_total = dpu_clock.Now();
  const auto dpu_hops = dpu_dma.counters().Get("pcie_hops");

  EXPECT_GT(host_total, dpu_total);
  EXPECT_GT(host_hops, dpu_hops);
}

TEST(DmaTest, PeerToPeerTrackedSeparately) {
  sim::Engine engine;
  Topology topo;
  NodeId rc = topo.AddRootComplex("rc");
  NodeId a = topo.AddEndpoint("a", rc, {3, 4});
  NodeId b = topo.AddEndpoint("b", rc, {3, 4});
  DmaEngine dma(&engine, &topo);
  ASSERT_TRUE(dma.TransferPeerToPeer(a, b, 512).ok());
  EXPECT_EQ(dma.counters().Get("p2p_dma_transfers"), 1u);
  EXPECT_EQ(dma.counters().Get("dma_transfers"), 0u);
}

}  // namespace
}  // namespace hyperion::pcie
