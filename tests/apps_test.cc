// Tests for the middleware applications: fail2ban with durable audit log,
// and the L4 load balancer with flash spill.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/apps/fail2ban.h"
#include "src/apps/load_balancer.h"
#include "src/common/rng.h"
#include "src/sim/fault.h"

namespace hyperion::apps {
namespace {

std::string IpToString(uint32_t ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.' << ((ip >> 8) & 0xff) << '.'
     << (ip & 0xff);
  return os.str();
}

// "a.b.c.d:p -> a.b.c.d:p/proto", for failure messages.
std::string FlowKeyToString(const FlowKey& key) {
  std::ostringstream os;
  os << IpToString(key.src_ip) << ':' << key.src_port << " -> " << IpToString(key.dst_ip) << ':'
     << key.dst_port << '/' << static_cast<int>(key.protocol);
  return os.str();
}

class AppsTest : public ::testing::Test {
 protected:
  AppsTest() : fabric_(&engine_), dpu_(&engine_, &fabric_) { CHECK_OK(dpu_.Boot()); }

  sim::Engine engine_;
  net::Fabric fabric_;
  dpu::Hyperion dpu_;
};

// -- FlowKey -------------------------------------------------------------

TEST(FlowKeyTest, HashAndEquality) {
  FlowKey a{0x0a000001, 0x0a000002, 1234, 80, 6};
  FlowKey b = a;
  FlowKey c = a;
  c.src_port = 1235;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(FlowKeyTest, ToStringFormatsDotted) {
  FlowKey key{0x0a000001, 0xc0a80101, 1234, 443, 6};
  EXPECT_EQ(FlowKeyToString(key), "10.0.0.1:1234 -> 192.168.1.1:443/6");
}

// -- Fail2Ban -------------------------------------------------------------

TEST_F(AppsTest, BansAfterThreshold) {
  auto f2b = Fail2Ban::Create(&dpu_, {.max_failures = 3});
  ASSERT_TRUE(f2b.ok());
  const uint32_t attacker = 0x0a000005;
  EXPECT_EQ(*(*f2b)->OnAuthAttempt(attacker, true), Fail2Ban::Verdict::kFailedAttempt);
  EXPECT_EQ(*(*f2b)->OnAuthAttempt(attacker, true), Fail2Ban::Verdict::kFailedAttempt);
  EXPECT_EQ(*(*f2b)->OnAuthAttempt(attacker, true), Fail2Ban::Verdict::kBanned);
  EXPECT_TRUE((*f2b)->IsBanned(attacker));
  // While banned, everything is rejected.
  EXPECT_EQ(*(*f2b)->OnAuthAttempt(attacker, false), Fail2Ban::Verdict::kBanned);
  EXPECT_EQ((*f2b)->bans_issued(), 1u);
}

TEST_F(AppsTest, SuccessfulAuthPassesAndInnocentStaysUnbanned) {
  auto f2b = Fail2Ban::Create(&dpu_, {});
  ASSERT_TRUE(f2b.ok());
  const uint32_t innocent = 0x0a000007;
  EXPECT_EQ(*(*f2b)->OnAuthAttempt(innocent, false), Fail2Ban::Verdict::kPass);
  EXPECT_FALSE((*f2b)->IsBanned(innocent));
  EXPECT_EQ((*f2b)->events_logged(), 0u);
}

TEST_F(AppsTest, WindowExpiryResetsFailureCount) {
  auto f2b = Fail2Ban::Create(&dpu_, {.max_failures = 3, .window = 10 * sim::kSecond});
  ASSERT_TRUE(f2b.ok());
  const uint32_t flaky = 0x0a000009;
  ASSERT_TRUE((*f2b)->OnAuthAttempt(flaky, true).ok());
  ASSERT_TRUE((*f2b)->OnAuthAttempt(flaky, true).ok());
  engine_.Advance(20 * sim::kSecond);  // window expires
  EXPECT_EQ(*(*f2b)->OnAuthAttempt(flaky, true), Fail2Ban::Verdict::kFailedAttempt);
  EXPECT_FALSE((*f2b)->IsBanned(flaky));
}

TEST_F(AppsTest, BanExpiresAfterDuration) {
  auto f2b = Fail2Ban::Create(&dpu_, {.max_failures = 1, .ban_duration = 60 * sim::kSecond});
  ASSERT_TRUE(f2b.ok());
  const uint32_t attacker = 0x0a00000b;
  EXPECT_EQ(*(*f2b)->OnAuthAttempt(attacker, true), Fail2Ban::Verdict::kBanned);
  engine_.Advance(120 * sim::kSecond);
  EXPECT_FALSE((*f2b)->IsBanned(attacker));
}

TEST_F(AppsTest, AuditTrailIsDurable) {
  auto f2b = Fail2Ban::Create(&dpu_, {.max_failures = 100});
  ASSERT_TRUE(f2b.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*f2b)->OnAuthAttempt(0x0a000001 + static_cast<uint32_t>(i), true).ok());
  }
  EXPECT_EQ((*f2b)->events_logged(), 10u);
  EXPECT_EQ((*f2b)->audit_log().Tail(), 10u);
}

TEST_F(AppsTest, BanListSurvivesPowerCycle) {
  auto f2b = Fail2Ban::Create(&dpu_, {.max_failures = 1});
  ASSERT_TRUE(f2b.ok());
  const uint32_t attacker = 0x0a0000ff;
  EXPECT_EQ(*(*f2b)->OnAuthAttempt(attacker, true), Fail2Ban::Verdict::kBanned);
  ASSERT_TRUE((*f2b)->PersistBanList().ok());

  // Power cycle: recover the store, fresh app instance.
  ASSERT_TRUE(dpu_.store().Recover().ok());
  auto fresh = Fail2Ban::Create(&dpu_, {.max_failures = 1});
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE((*fresh)->IsBanned(attacker));
  auto restored = (*fresh)->RestoreBanList();
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 1u);
  EXPECT_TRUE((*fresh)->IsBanned(attacker));
}

// -- Load balancer -----------------------------------------------------

std::vector<Backend> ThreeBackends() {
  return {{0xc0a80001, 80}, {0xc0a80002, 80}, {0xc0a80003, 80}};
}

Packet SynPacket(uint32_t src_ip, uint16_t src_port) {
  Packet packet;
  packet.flow = FlowKey{src_ip, 0x08080808, src_port, 443, 6};
  packet.tcp_flags = kTcpSyn;
  return packet;
}

TEST_F(AppsTest, FlowsAreSticky) {
  auto lb = LoadBalancer::Create(&dpu_, ThreeBackends(), 1000);
  ASSERT_TRUE(lb.ok());
  Packet syn = SynPacket(0x0a000001, 5555);
  auto first = (*lb)->Route(syn);
  ASSERT_TRUE(first.ok());
  Packet data = syn;
  data.tcp_flags = kTcpAck;
  for (int i = 0; i < 10; ++i) {
    auto next = (*lb)->Route(data);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, *first);
  }
  EXPECT_EQ((*lb)->stats().new_flows, 1u);
  EXPECT_EQ((*lb)->stats().resident_hits, 10u);
}

TEST_F(AppsTest, LoadSpreadsAcrossBackends) {
  auto lb = LoadBalancer::Create(&dpu_, ThreeBackends(), 100000);
  ASSERT_TRUE(lb.ok());
  std::map<uint16_t, int> hits;
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    Packet syn = SynPacket(static_cast<uint32_t>(rng.Next()),
                           static_cast<uint16_t>(rng.Uniform(60000)));
    auto backend = (*lb)->Route(syn);
    ASSERT_TRUE(backend.ok());
    ++hits[static_cast<uint16_t>(backend->ip & 0xff)];
  }
  ASSERT_EQ(hits.size(), 3u);
  for (const auto& [ip, count] : hits) {
    EXPECT_GT(count, 3000 / 6) << "backend " << ip << " starved";
  }
}

TEST_F(AppsTest, SpillsToFlashAndStaysSticky) {
  // Resident capacity 64 but 512 concurrent flows: most spill to flash.
  auto lb = LoadBalancer::Create(&dpu_, ThreeBackends(), 64);
  ASSERT_TRUE(lb.ok());
  std::vector<std::pair<Packet, Backend>> flows;
  for (uint32_t i = 0; i < 512; ++i) {
    Packet syn = SynPacket(0x0a000000 + i, static_cast<uint16_t>(1000 + i));
    auto backend = (*lb)->Route(syn);
    ASSERT_TRUE(backend.ok());
    flows.emplace_back(syn, *backend);
  }
  EXPECT_GT((*lb)->stats().spills, 0u);
  EXPECT_LE((*lb)->ResidentFlows(), 64u);
  // Every flow — resident or spilled — still routes to its pinned backend.
  for (auto& [packet, expected] : flows) {
    Packet data = packet;
    data.tcp_flags = kTcpAck;
    auto backend = (*lb)->Route(data);
    ASSERT_TRUE(backend.ok());
    EXPECT_EQ(*backend, expected) << FlowKeyToString(packet.flow);
  }
  EXPECT_GT((*lb)->stats().spill_hits, 0u);
  EXPECT_GT((*lb)->stats().promotions, 0u);
}

TEST_F(AppsTest, FinTearsDownFlowState) {
  auto lb = LoadBalancer::Create(&dpu_, ThreeBackends(), 1000);
  ASSERT_TRUE(lb.ok());
  Packet syn = SynPacket(0x0a000050, 8888);
  ASSERT_TRUE((*lb)->Route(syn).ok());
  EXPECT_EQ((*lb)->ResidentFlows(), 1u);
  Packet fin = syn;
  fin.tcp_flags = kTcpFin;
  ASSERT_TRUE((*lb)->Route(fin).ok());
  EXPECT_EQ((*lb)->ResidentFlows(), 0u);
}

// -- Fault paths -------------------------------------------------------

// One fail2ban + load-balancer run under an injector-equipped DPU.
// Returns a flat fingerprint of every externally visible decision.
struct FaultRunResult {
  std::vector<uint8_t> verdicts;
  std::vector<uint32_t> backend_ips;
  uint64_t bans_issued = 0;
  uint64_t events_logged = 0;
  uint64_t spills = 0;
  uint64_t spill_hits = 0;
  uint64_t promotions = 0;
  uint64_t spill_entries = 0;

  bool operator==(const FaultRunResult&) const = default;
};

FaultRunResult RunAppsUnderPlan(const sim::FaultPlan& plan, uint64_t injector_seed) {
  sim::Engine engine;
  net::Fabric fabric(&engine, {});
  dpu::Hyperion dpu(&engine, &fabric);
  CHECK_OK(dpu.Boot());
  sim::FaultInjector injector(&engine, plan, injector_seed);
  dpu.InstallFaultInjector(&injector);

  auto f2b = Fail2Ban::Create(&dpu, {.max_failures = 3});
  CHECK(f2b.ok());
  auto lb = LoadBalancer::Create(&dpu, ThreeBackends(), 64);
  CHECK(lb.ok());

  FaultRunResult result;
  Rng rng(0x5CA1AB1E);  // same workload seed on every run
  for (int op = 0; op < 800; ++op) {
    if (rng.Bernoulli(0.25)) {
      // Auth attempt: 4 attackers hammer, 4 innocents occasionally fail.
      const uint32_t who = static_cast<uint32_t>(rng.Uniform(8));
      const bool attacker = who < 4;
      auto verdict =
          (*f2b)->OnAuthAttempt(0x0a000001 + who, attacker || rng.Bernoulli(0.1));
      CHECK(verdict.ok());
      result.verdicts.push_back(static_cast<uint8_t>(*verdict));
    } else {
      // Flow traffic over a working set 6x the resident capacity.
      const uint32_t flow = static_cast<uint32_t>(rng.Uniform(384));
      Packet packet = SynPacket(0x0b000000 + flow, static_cast<uint16_t>(2000 + flow));
      if (rng.Bernoulli(0.7)) {
        packet.tcp_flags = kTcpAck;  // established traffic; may probe flash
      }
      auto backend = (*lb)->Route(packet);
      CHECK(backend.ok());
      result.backend_ips.push_back(backend->ip);
    }
  }
  result.bans_issued = (*f2b)->bans_issued();
  result.events_logged = (*f2b)->events_logged();
  result.spills = (*lb)->stats().spills;
  result.spill_hits = (*lb)->stats().spill_hits;
  result.promotions = (*lb)->stats().promotions;
  result.spill_entries = (*lb)->spill().EntryCount();
  return result;
}

TEST(AppsFaultTest, BansAndSpillStateDeterministicUnderNetFaults) {
  // Lossy, corrupting network (the XDP ingress environment). The apps'
  // decisions are driven by the durable store and the virtual clock, so
  // two identical runs must agree bit-for-bit on every ban and every
  // spill-tier transition — the property the cluster verdict hash relies on.
  sim::FaultPlan plan;
  plan.WithProbability(sim::FaultSite::kNetLoss, 0.25)
      .WithProbability(sim::FaultSite::kNetCorrupt, 0.10);
  const FaultRunResult first = RunAppsUnderPlan(plan, /*injector_seed=*/0xFA57);
  const FaultRunResult second = RunAppsUnderPlan(plan, /*injector_seed=*/0xFA57);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.bans_issued, 0u);
  EXPECT_GT(first.spills, 0u);
  EXPECT_GT(first.spill_hits, 0u);
  // The fault-free baseline makes the same decisions: net faults must not
  // leak into storage-backed app state at all.
  const FaultRunResult clean = RunAppsUnderPlan(sim::FaultPlan(), 0xFA57);
  EXPECT_EQ(first, clean);
}

TEST_F(AppsTest, SpillProbeRidesThroughTransientFlashErrorAndFailsClosedOnPersistentOne) {
  auto lb = LoadBalancer::Create(&dpu_, ThreeBackends(), 4);
  ASSERT_TRUE(lb.ok());
  // Open 32 flows through a 4-entry resident tier: 28 spill to flash.
  std::vector<std::pair<Packet, Backend>> flows;
  for (uint32_t i = 0; i < 32; ++i) {
    Packet syn = SynPacket(0x0c000000 + i, static_cast<uint16_t>(3000 + i));
    auto backend = (*lb)->Route(syn);
    ASSERT_TRUE(backend.ok());
    flows.emplace_back(syn, *backend);
  }
  ASSERT_GT((*lb)->stats().spills, 0u);

  // A single ECC miss is transient: the controller's retry path absorbs it
  // and the spill probe still promotes the flow to its original pin.
  sim::FaultPlan transient;
  transient.Always(sim::FaultSite::kNvmeReadError, /*count=*/1);
  sim::FaultInjector transient_injector(&engine_, transient, 0x1);
  dpu_.InstallFaultInjector(&transient_injector);
  Packet established = flows.front().first;
  established.tcp_flags = kTcpAck;
  auto routed = (*lb)->Route(established);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(*routed, flows.front().second);
  EXPECT_EQ(transient_injector.TotalInjected(), 1u);

  // A persistent media failure outlives every retry: the probe fails
  // closed — the error surfaces and no resident entry is fabricated.
  sim::FaultPlan persistent;
  // retry_limit (3) + 1: every attempt of exactly one command fails.
  persistent.Always(sim::FaultSite::kNvmeReadError, /*count=*/4);
  sim::FaultInjector persistent_injector(&engine_, persistent, 0x2);
  dpu_.InstallFaultInjector(&persistent_injector);
  Packet second = flows[1].first;
  second.tcp_flags = kTcpAck;
  const uint64_t resident_before = (*lb)->ResidentFlows();
  auto failed = (*lb)->Route(second);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*lb)->ResidentFlows(), resident_before);

  // Media recovers (budget exhausted): the same flow routes to its pin.
  auto recovered = (*lb)->Route(second);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, flows[1].second);
  dpu_.InstallFaultInjector(nullptr);
}

}  // namespace
}  // namespace hyperion::apps
