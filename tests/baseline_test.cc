// Tests for the CPU-centric baseline: host cost model, kernel-mediated
// server pipeline, time-shared scheduling, and the Table-1 integration
// pricing that experiment E1 builds on.

#include <gtest/gtest.h>

#include "src/baseline/host.h"
#include "src/baseline/integration.h"
#include "src/baseline/server.h"
#include "src/common/rng.h"

namespace hyperion::baseline {
namespace {

TEST(HostCpuTest, PrimitivesAdvanceClockAndBusyTime) {
  sim::Engine engine;
  HostCpu cpu(&engine);
  cpu.Syscall();
  cpu.Interrupt();
  cpu.Copy(1 << 20);
  EXPECT_GT(engine.Now(), 0u);
  EXPECT_EQ(cpu.BusyTime(), engine.Now());
  EXPECT_EQ(cpu.counters().Get("syscalls"), 1u);
  EXPECT_EQ(cpu.counters().Get("interrupts"), 1u);
  EXPECT_EQ(cpu.counters().Get("copied_bytes"), 1u << 20);
}

TEST(HostCpuTest, CopyCostScalesWithBytes) {
  sim::Engine engine;
  HostCpu cpu(&engine);
  const auto t0 = engine.Now();
  cpu.Copy(4096);
  const auto small = engine.Now() - t0;
  cpu.Copy(4 << 20);
  const auto large = engine.Now() - t0 - small;
  EXPECT_GT(large, small * 100);
}

TEST(CpuServerTest, KvOperationChargesSoftwareOverheads) {
  sim::Engine engine;
  CpuServer server(&engine);
  auto write = server.KvOperation(/*is_write=*/true, 1024);
  auto read = server.KvOperation(/*is_write=*/false, 1024);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(read.ok());
  // Both dominated by software + flash; reads pay the slower media read.
  EXPECT_GT(*read, *write);
}

TEST(TimeSharedSchedulerTest, NoQueueingWhenIdle) {
  TimeSharedScheduler sched(4, 2 * sim::kMicrosecond);
  const auto latency = sched.Submit(0, 10 * sim::kMicrosecond);
  EXPECT_EQ(latency, 12 * sim::kMicrosecond);  // switch + service
}

TEST(TimeSharedSchedulerTest, OverloadInflatesTail) {
  // One core, bursty arrivals: tail latency must blow past service time.
  TimeSharedScheduler sched(1, 2 * sim::kMicrosecond);
  Rng rng(5);
  sim::SimTime now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += static_cast<sim::SimTime>(rng.Exponential(9.0) * 1000);  // ~9 us gap
    sched.Submit(now, 10 * sim::kMicrosecond);  // 10 us service: rho > 1
  }
  EXPECT_GT(sched.latencies().P99(), 50 * sim::kMicrosecond);
  EXPECT_GT(sched.latencies().P99(), sched.latencies().P50());
}

TEST(TimeSharedSchedulerTest, MoreCoresDrainFaster) {
  TimeSharedScheduler one(1, 1000);
  TimeSharedScheduler four(4, 1000);
  for (int i = 0; i < 100; ++i) {
    one.Submit(0, 10 * sim::kMicrosecond);
    four.Submit(0, 10 * sim::kMicrosecond);
  }
  EXPECT_GT(one.latencies().P99(), four.latencies().P99());
}

// -- Table 1 pricing -----------------------------------------------------

TEST(IntegrationTest, HyperionHasZeroCpuTouches) {
  auto report = PriceNetToStorage(IntegrationKind::kHyperion, 64 * 1024);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->cpu_touches, 0u);
  EXPECT_EQ(report->cpu_busy, 0u);
  EXPECT_EQ(report->dma_legs, 1u);
}

TEST(IntegrationTest, EveryPriorClassTouchesTheCpu) {
  for (IntegrationKind kind :
       {IntegrationKind::kGpuWithNetwork, IntegrationKind::kGpuWithStorage,
        IntegrationKind::kFpgaWithNetwork, IntegrationKind::kStorageWithNetwork,
        IntegrationKind::kStorageWithAccel, IntegrationKind::kCommercialDpu}) {
    auto report = PriceNetToStorage(kind, 64 * 1024);
    ASSERT_TRUE(report.ok()) << IntegrationName(kind);
    EXPECT_GT(report->cpu_touches, 0u) << IntegrationName(kind);
    EXPECT_GT(report->cpu_busy, 0u) << IntegrationName(kind);
  }
}

TEST(IntegrationTest, HyperionHasLowestLatencyAndFewestHops) {
  auto hyperion = PriceNetToStorage(IntegrationKind::kHyperion, 64 * 1024);
  ASSERT_TRUE(hyperion.ok());
  for (IntegrationKind kind :
       {IntegrationKind::kGpuWithNetwork, IntegrationKind::kGpuWithStorage,
        IntegrationKind::kFpgaWithNetwork, IntegrationKind::kStorageWithNetwork,
        IntegrationKind::kStorageWithAccel, IntegrationKind::kCommercialDpu}) {
    auto row = PriceNetToStorage(kind, 64 * 1024);
    ASSERT_TRUE(row.ok()) << IntegrationName(kind);
    EXPECT_GT(row->latency, hyperion->latency) << IntegrationName(kind);
    EXPECT_GT(row->pcie_hops, hyperion->pcie_hops) << IntegrationName(kind);
  }
}

TEST(IntegrationTest, UserspaceBounceClassesCostMoreThanKernelBridges) {
  // Designs that copy through userspace (storage-with-accel) pay more CPU
  // time than in-kernel bridges (NVMe-oF target).
  auto accel = PriceNetToStorage(IntegrationKind::kStorageWithAccel, 256 * 1024);
  auto nvmf = PriceNetToStorage(IntegrationKind::kStorageWithNetwork, 256 * 1024);
  ASSERT_TRUE(accel.ok());
  ASSERT_TRUE(nvmf.ok());
  EXPECT_GT(accel->cpu_busy, nvmf->cpu_busy);
}

}  // namespace
}  // namespace hyperion::baseline
