// Tests for the FPGA fabric: reconfiguration latency band, deterministic
// execution, AXI transaction timing, and the spatial slot scheduler.

#include <gtest/gtest.h>

#include "src/fpga/axi.h"
#include "src/fpga/fabric.h"
#include "src/fpga/scheduler.h"

namespace hyperion::fpga {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Fabric fabric_{&engine_};
};

TEST_F(FabricTest, ReconfigLatencyInPaperBand) {
  // §2: partial reconfiguration operates at "10-100 msecs" timescales.
  // A typical 4 MiB partial bitstream through a 400 MB/s ICAP.
  const sim::Duration latency = fabric_.ReconfigLatency(4 * 1024 * 1024);
  EXPECT_GE(latency, 10 * sim::kMillisecond);
  EXPECT_LE(latency, 100 * sim::kMillisecond);
  // And a large 32 MiB region image still lands under ~100 ms.
  EXPECT_LE(fabric_.ReconfigLatency(32ull * 1024 * 1024), 100 * sim::kMillisecond);
}

TEST_F(FabricTest, ReconfigureLoadsAndAdvancesClock) {
  Bitstream bs;
  bs.name = "filter";
  auto latency = fabric_.Reconfigure(0, bs);
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(engine_.Now(), *latency);
  EXPECT_TRUE(fabric_.IsLoaded(0));
  EXPECT_EQ(fabric_.LoadedBitstream(0)->name, "filter");
}

TEST_F(FabricTest, OversizedBitstreamRejected) {
  Bitstream bs;
  bs.slices = 100;  // region capacity is 4
  EXPECT_EQ(fabric_.Reconfigure(0, bs).status().code(), StatusCode::kResourceExhausted);
}

TEST_F(FabricTest, ExecuteIsDeterministicPerFmax) {
  Bitstream bs;
  bs.name = "a";
  bs.fmax_mhz = 250.0;
  ASSERT_TRUE(fabric_.Reconfigure(0, bs).ok());
  // 250k cycles at 250 MHz = exactly 1 ms, every time, regardless of what
  // the neighbours do.
  Bitstream noisy;
  noisy.name = "noisy_neighbor";
  ASSERT_TRUE(fabric_.Reconfigure(1, noisy).ok());
  const auto t1 = *fabric_.Execute(0, 250000);
  ASSERT_TRUE(fabric_.Execute(1, 999999).ok());
  const auto t2 = *fabric_.Execute(0, 250000);
  EXPECT_EQ(t1, 1 * sim::kMillisecond);
  EXPECT_EQ(t1, t2);
}

TEST_F(FabricTest, ExecuteOnEmptyRegionFails) {
  EXPECT_FALSE(fabric_.Execute(2, 100).ok());
}

// -- AXI ----------------------------------------------------------------------

TEST(AxiTest, TransactionTimeScalesWithSize) {
  EXPECT_LT(AxiTransactionTime(64), AxiTransactionTime(64 * 1024));
  // 12 ns of arbitration plus the payload at 512 Gb/s.
  EXPECT_EQ(AxiTransactionTime(64), 13u);
  EXPECT_EQ(AxiTransactionTime(64 * 1024), 1036u);
}

// -- Scheduler ------------------------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : fabric_(&engine_, FabricConfig{.regions = 2}), sched_(&engine_, &fabric_) {}

  Bitstream Bs(const std::string& name, TenantId tenant) {
    Bitstream bs;
    bs.name = name;
    bs.tenant = tenant;
    return bs;
  }

  sim::Engine engine_;
  Fabric fabric_;
  SlotScheduler sched_;
};

TEST_F(SchedulerTest, ReusesResidentBitstream) {
  auto first = sched_.Acquire(Bs("a", 1));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->reconfigured);
  ASSERT_TRUE(sched_.Release(first->region).ok());
  auto second = sched_.Acquire(Bs("a", 1));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->reconfigured);
  EXPECT_EQ(second->region, first->region);
  EXPECT_EQ(sched_.hits(), 1u);
}

TEST_F(SchedulerTest, EvictsLruWhenFull) {
  auto a = sched_.Acquire(Bs("a", 1));
  auto b = sched_.Acquire(Bs("b", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(sched_.Release(a->region).ok());
  ASSERT_TRUE(sched_.Release(b->region).ok());
  // Third tenant: evicts "a" (least recently used).
  auto c = sched_.Acquire(Bs("c", 3));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->region, a->region);
  EXPECT_EQ(sched_.evictions(), 1u);
  // "a" now misses again.
  ASSERT_TRUE(sched_.Release(c->region).ok());
  auto a2 = sched_.Acquire(Bs("a", 1));
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(a2->reconfigured);
}

TEST_F(SchedulerTest, PinnedRegionsAreNotEvicted) {
  auto a = sched_.Acquire(Bs("a", 1));
  auto b = sched_.Acquire(Bs("b", 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both pinned: a third acquisition must fail rather than evict.
  EXPECT_EQ(sched_.Acquire(Bs("c", 3)).status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SchedulerTest, SameNameDifferentTenantDoesNotAlias) {
  auto a = sched_.Acquire(Bs("prog", 1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(sched_.Release(a->region).ok());
  // Tenant 2's "prog" is a different bitstream; must not hit tenant 1's.
  auto b = sched_.Acquire(Bs("prog", 2));
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->reconfigured);
}

}  // namespace
}  // namespace hyperion::fpga
