// Unit tests for the network fabric and the four application-defined
// transports (§2's TCP/UDP/RDMA/HOMA menu).

#include <gtest/gtest.h>

#include "src/net/fabric.h"
#include "src/net/transport.h"

namespace hyperion::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Fabric fabric_{&engine_};
  Rng rng_{123};
};

TEST_F(NetTest, LoopbackIsFree) {
  HostId a = fabric_.AddHost("a");
  EXPECT_EQ(*fabric_.OneWayLatency(a, a, 4096), 0u);
}

TEST_F(NetTest, SmallMessageRttIsMicroseconds) {
  HostId a = fabric_.AddHost("a");
  HostId b = fabric_.AddHost("b");
  const auto rtt = *fabric_.Rtt(a, b);
  // Intra-rack 100 GbE: a few microseconds.
  EXPECT_GT(rtt, 1 * sim::kMicrosecond);
  EXPECT_LT(rtt, 10 * sim::kMicrosecond);
}

TEST_F(NetTest, SerializationDominatesLargeMessages) {
  HostId a = fabric_.AddHost("a");
  HostId b = fabric_.AddHost("b");
  const auto small = *fabric_.OneWayLatency(a, b, 64);
  const auto large = *fabric_.OneWayLatency(a, b, 10 << 20);
  // 10 MiB at 100 Gbps ~= 839 us.
  EXPECT_GT(large, small + 800 * sim::kMicrosecond);
}

TEST_F(NetTest, SlowerLinkBottlenecks) {
  HostId fast = fabric_.AddHost("fast", 100.0);
  HostId slow = fabric_.AddHost("slow", 10.0);
  HostId fast2 = fabric_.AddHost("fast2", 100.0);
  EXPECT_GT(*fabric_.OneWayLatency(fast, slow, 1 << 20),
            *fabric_.OneWayLatency(fast, fast2, 1 << 20));
}

TEST_F(NetTest, DeliverAdvancesClock) {
  HostId a = fabric_.AddHost("a");
  HostId b = fabric_.AddHost("b");
  const auto latency = *fabric_.Deliver(a, b, 1000);
  EXPECT_EQ(engine_.Now(), latency);
  EXPECT_EQ(fabric_.counters().Get("net_messages"), 1u);
}

TEST_F(NetTest, UnknownHostRejected) {
  HostId a = fabric_.AddHost("a");
  EXPECT_FALSE(fabric_.OneWayLatency(a, 99, 10).ok());
}

// -- Transports ---------------------------------------------------------

TEST_F(NetTest, AllTransportsCompleteLosslessRoundTrip) {
  HostId a = fabric_.AddHost("a");
  HostId b = fabric_.AddHost("b");
  for (TransportKind kind : {TransportKind::kUdp, TransportKind::kTcp, TransportKind::kRdma,
                             TransportKind::kHoma}) {
    auto transport = MakeTransport(kind, &fabric_, &rng_);
    auto request = transport->Send(a, b, 128);
    auto response = transport->Send(b, a, 4096);
    ASSERT_TRUE(request.ok()) << TransportKindName(kind);
    ASSERT_TRUE(response.ok()) << TransportKindName(kind);
    EXPECT_GT(*request + *response, 0u) << TransportKindName(kind);
  }
}

TEST_F(NetTest, UdpLosesDatagramsAtConfiguredRate) {
  HostId a = fabric_.AddHost("a");
  HostId b = fabric_.AddHost("b");
  TransportParams params;
  params.loss_probability = 0.5;
  auto udp = MakeTransport(TransportKind::kUdp, &fabric_, &rng_, params);
  int lost = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!udp->Send(a, b, 64).ok()) {
      ++lost;
    }
  }
  EXPECT_GT(lost, 400);
  EXPECT_LT(lost, 600);
}

TEST_F(NetTest, TcpSurvivesLossButPaysForIt) {
  HostId a = fabric_.AddHost("a");
  HostId b = fabric_.AddHost("b");
  TransportParams lossy;
  lossy.loss_probability = 0.2;
  auto tcp_lossy = MakeTransport(TransportKind::kTcp, &fabric_, &rng_, lossy);
  auto tcp_clean = MakeTransport(TransportKind::kTcp, &fabric_, &rng_);
  sim::Duration lossy_total = 0;
  sim::Duration clean_total = 0;
  for (int i = 0; i < 200; ++i) {
    auto r1 = tcp_lossy->Send(a, b, 1000);
    ASSERT_TRUE(r1.ok());
    lossy_total += *r1;
    auto r2 = tcp_clean->Send(a, b, 1000);
    ASSERT_TRUE(r2.ok());
    clean_total += *r2;
  }
  EXPECT_GT(lossy_total, clean_total);
}

TEST_F(NetTest, RdmaIsFastestSmallMessageTransport) {
  HostId a = fabric_.AddHost("a");
  HostId b = fabric_.AddHost("b");
  // Give the host-stack transports kernel-ish software overheads, as in the
  // baseline configuration of the benches.
  TransportParams host;
  host.sender_sw_overhead = 2 * sim::kMicrosecond;
  host.receiver_sw_overhead = 2 * sim::kMicrosecond;
  auto tcp = MakeTransport(TransportKind::kTcp, &fabric_, &rng_, host);
  auto rdma = MakeTransport(TransportKind::kRdma, &fabric_, &rng_);
  auto round_trip = [&](Transport& transport) {
    return *transport.Send(a, b, 64) + *transport.Send(b, a, 64);
  };
  EXPECT_LT(round_trip(*rdma), round_trip(*tcp));
}

TEST_F(NetTest, HomaShortMessagesDodgeLoadQueueing) {
  HostId a = fabric_.AddHost("a");
  HostId b = fabric_.AddHost("b");
  TransportParams loaded;
  loaded.homa_load = 0.8;
  auto homa = MakeTransport(TransportKind::kHoma, &fabric_, &rng_, loaded);
  const auto short_msg = *homa->Send(a, b, 512);
  const auto long_msg = *homa->Send(a, b, 1 << 20);
  // SRPT: the absolute queueing+grant penalty that load imposes on a short
  // message must be far below what the long message absorbs.
  auto unloaded = MakeTransport(TransportKind::kHoma, &fabric_, &rng_);
  const auto short_unloaded = *unloaded->Send(a, b, 512);
  const auto long_unloaded = *unloaded->Send(a, b, 1 << 20);
  const auto short_penalty = short_msg - short_unloaded;
  const auto long_penalty = long_msg - long_unloaded;
  EXPECT_LT(short_penalty * 5, long_penalty);
  EXPECT_GT(long_msg, long_unloaded);
}

}  // namespace
}  // namespace hyperion::net
