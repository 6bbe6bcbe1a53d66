// Tests for the analytics scan pushdown path (PR 10): FPGA scan kernels
// streaming Parquet row groups straight from NVMe, the host baseline
// executing the identical queries after a whole-file bounce, fault-path
// recovery via the PR 1 plan, and the mixed KV+analytics OverloadCluster
// determinism oracle across shard layouts.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/scan.h"
#include "src/common/check.h"
#include "src/common/status.h"
#include "src/format/parquet.h"
#include "src/format/scan_kernel.h"
#include "src/fpga/fabric.h"
#include "src/fpga/scheduler.h"
#include "src/load/harness.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "tests/testutil.h"

namespace hyperion {
namespace {

using format::EvaluateScanQuery;
using format::FpgaScanKernel;
using format::NvmeParquetFile;
using format::ParquetReader;
using format::ScanKernelKind;
using format::ScanQuery;
using format::ScanResult;
using format::ScanStats;

// The deterministic demo table: sequential order ids (tight zone maps),
// mixed-sign amounts, 7 regions.
format::RecordBatch DemoBatch(uint64_t rows) {
  std::vector<int64_t> order_id(rows);
  std::vector<int64_t> amount(rows);
  std::vector<std::string> region(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    order_id[i] = static_cast<int64_t>(i);
    amount[i] = static_cast<int64_t>((i * 0x9e3779b9ull + 12345) % 100000) - 50000;
    region[i] = std::string("r") + static_cast<char>('0' + (i * 2654435761ull >> 7) % 7);
  }
  std::vector<format::ColumnData> columns;
  columns.emplace_back(std::move(order_id));
  columns.emplace_back(std::move(amount));
  columns.emplace_back(std::move(region));
  return format::RecordBatch(format::Schema{{"order_id", format::ColumnType::kInt64},
                                            {"amount", format::ColumnType::kInt64},
                                            {"region", format::ColumnType::kString}},
                             std::move(columns));
}

Bytes DemoFile(uint64_t rows = 8192, uint64_t rows_per_group = 512) {
  auto file = format::WriteParquet(DemoBatch(rows), {.rows_per_group = rows_per_group});
  CHECK_OK(file.status());
  return *file;
}

ScanQuery DemoQuery(ScanKernelKind kind, int64_t lo = 1000, int64_t hi = 1999) {
  ScanQuery query;
  query.kind = kind;
  query.filter_column = "order_id";
  query.lo = lo;
  query.hi = hi;
  query.value_column = "amount";
  query.group_column = "region";
  return query;
}

// One engine + NVMe + small fabric + scheduler + stored table + kernel.
struct Rig {
  explicit Rig(uint32_t regions = 2, const sim::FaultPlan& plan = {},
               uint64_t rows = 8192, uint64_t rows_per_group = 512)
      : nvme(&engine) {
    if (!plan.empty()) {
      injector = std::make_unique<sim::FaultInjector>(&engine, plan);
      nvme.SetFaultInjector(injector.get());
    }
    fpga::FabricConfig config;
    config.regions = regions;
    fabric = std::make_unique<fpga::Fabric>(&engine, config);
    if (injector) {
      fabric->SetFaultInjector(injector.get());
    }
    scheduler = std::make_unique<fpga::SlotScheduler>(&engine, fabric.get());
    file = DemoFile(rows, rows_per_group);
    const uint32_t nsid =
        nvme.AddNamespace(file.size() / nvme::kLbaSize + 8);
    auto stored = NvmeParquetFile::Store(&nvme, nsid, 0, file);
    CHECK_OK(stored.status());
    table = std::make_unique<NvmeParquetFile>(std::move(*stored));
    kernel = std::make_unique<FpgaScanKernel>(&engine, fabric.get(), scheduler.get());
  }

  sim::Engine engine;
  nvme::Controller nvme;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<fpga::Fabric> fabric;
  std::unique_ptr<fpga::SlotScheduler> scheduler;
  Bytes file;
  std::unique_ptr<NvmeParquetFile> table;
  std::unique_ptr<FpgaScanKernel> kernel;
};

// -- Kernel correctness -------------------------------------------------------

TEST(ScanKernelTest, MatchesDirectEvaluationForEveryKind) {
  Rig rig;
  for (auto kind : {ScanKernelKind::kFilter, ScanKernelKind::kFilterAggregate,
                    ScanKernelKind::kGroupedSum}) {
    const ScanQuery query = DemoQuery(kind);
    auto reader = ParquetReader::OpenBuffer(rig.file);
    ASSERT_TRUE(reader.ok());
    ScanStats direct_stats;
    auto direct = EvaluateScanQuery(*reader, query, nullptr, &direct_stats);
    ASSERT_TRUE(direct.ok());
    auto fpga = rig.kernel->Execute(*rig.table, query);
    ASSERT_TRUE(fpga.ok());
    EXPECT_EQ(fpga->output, *direct);
    EXPECT_EQ(fpga->stats.groups_total, direct_stats.groups_total);
    EXPECT_EQ(fpga->stats.groups_skipped, direct_stats.groups_skipped);
  }
}

TEST(ScanKernelTest, FilterCountsAndAggregatesAreRight) {
  Rig rig;
  auto agg = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilterAggregate));
  ASSERT_TRUE(agg.ok());
  // order_id in [1000, 1999]: exactly 1000 rows.
  EXPECT_EQ(agg->output.rows_matched, 1000u);
  EXPECT_EQ(agg->output.agg.count, 1000u);
  // Direct recomputation of the amount aggregate over that range.
  int64_t sum = 0, mn = std::numeric_limits<int64_t>::max(), mx = std::numeric_limits<int64_t>::min();
  for (uint64_t i = 1000; i <= 1999; ++i) {
    const int64_t v = static_cast<int64_t>((i * 0x9e3779b9ull + 12345) % 100000) - 50000;
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_EQ(agg->output.agg.sum, sum);
  EXPECT_EQ(agg->output.agg.min, mn);
  EXPECT_EQ(agg->output.agg.max, mx);
  auto grouped = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kGroupedSum));
  ASSERT_TRUE(grouped.ok());
  int64_t grouped_total = 0;
  for (const auto& [name, group_sum] : grouped->output.groups) {
    grouped_total += group_sum;
  }
  EXPECT_EQ(grouped_total, sum);  // group sums partition the filtered sum
}

TEST(ScanKernelTest, MissingColumnsFailCleanly) {
  Rig rig;
  ScanQuery query = DemoQuery(ScanKernelKind::kFilter);
  query.filter_column = "absent";
  EXPECT_EQ(rig.kernel->Execute(*rig.table, query).status().code(), StatusCode::kNotFound);
  query = DemoQuery(ScanKernelKind::kFilterAggregate);
  query.value_column = "absent";
  EXPECT_EQ(rig.kernel->Execute(*rig.table, query).status().code(), StatusCode::kNotFound);
  // The failed acquires must not leak region pins.
  EXPECT_EQ(rig.scheduler->free_regions(), rig.fabric->RegionCount());
}

// -- Pushdown accounting ------------------------------------------------------

TEST(ScanKernelTest, ZoneMapsPruneDeviceTraffic) {
  Rig rig;
  auto result = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilter));
  ASSERT_TRUE(result.ok());
  // 8192 rows / 512 per group = 16 groups; [1000,1999] spans groups 1..3.
  EXPECT_EQ(result->stats.groups_total, 16u);
  EXPECT_GE(result->stats.groups_skipped, 13u);
  // Pushdown: the device moved far less than the file (footer + 3 groups of
  // one column), and nothing bounced through a host copy.
  EXPECT_LT(result->stats.device_bytes_moved, rig.file.size() / 2);
  EXPECT_EQ(result->stats.host_bytes_copied, 0u);
  EXPECT_GT(result->stats.chunk_bytes_fetched, 0u);
  // Device traffic is LBA-rounded, so it can only exceed the byte-exact
  // chunk fetches.
  EXPECT_GE(result->stats.device_bytes_moved, result->stats.chunk_bytes_fetched);
}

TEST(ScanKernelTest, FabricAndHostPathsAreBitIdenticalAndHostMovesMore) {
  for (auto kind : {ScanKernelKind::kFilter, ScanKernelKind::kFilterAggregate,
                    ScanKernelKind::kGroupedSum}) {
    Rig rig;
    const ScanQuery query = DemoQuery(kind);
    auto fpga = rig.kernel->Execute(*rig.table, query);
    ASSERT_TRUE(fpga.ok());
    baseline::HostScanPath host(&rig.engine);
    auto host_result = host.Execute(*rig.table, query);
    ASSERT_TRUE(host_result.ok());
    // The answer is substrate-independent, bit for bit.
    EXPECT_EQ(fpga->output, host_result->output);
    EXPECT_EQ(fpga->output.Fingerprint(), host_result->output.Fingerprint());
    // The host path bounced the whole file device->DRAM->user.
    EXPECT_GE(host_result->stats.device_bytes_moved, rig.file.size());
    EXPECT_EQ(host_result->stats.host_bytes_copied, rig.file.size());
    EXPECT_LT(fpga->stats.device_bytes_moved, host_result->stats.device_bytes_moved);
  }
}

// -- Reconfiguration ----------------------------------------------------------

TEST(ScanKernelTest, ReconfigLatencyLandsInPaperBand) {
  Rig rig;
  auto cold = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilter));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->stats.reconfigured);
  EXPECT_GE(cold->stats.reconfig_ns, 10 * sim::kMillisecond);
  EXPECT_LE(cold->stats.reconfig_ns, 100 * sim::kMillisecond);
  // Same kind again: resident hit, no ICAP traffic.
  auto warm = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilter));
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->stats.reconfigured);
  EXPECT_EQ(warm->stats.reconfig_ns, 0u);
  EXPECT_EQ(warm->output, cold->output);
}

TEST(ScanKernelTest, AlternatingKindsOnOneRegionSwapEveryQuery) {
  Rig rig(/*regions=*/1);
  for (int round = 0; round < 3; ++round) {
    for (auto kind : {ScanKernelKind::kFilter, ScanKernelKind::kGroupedSum}) {
      auto result = rig.kernel->Execute(*rig.table, DemoQuery(kind));
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result->stats.reconfigured);
      EXPECT_GE(result->stats.reconfig_ns, 10 * sim::kMillisecond);
      EXPECT_LE(result->stats.reconfig_ns, 100 * sim::kMillisecond);
    }
  }
  EXPECT_EQ(rig.scheduler->evictions(), 5u);  // every swap after the first
}

// -- Fault paths (PR 1 plan) --------------------------------------------------

TEST(ScanKernelFaultTest, TransientMediaErrorRecoversBitIdentically) {
  ScanResult clean;
  {
    Rig rig;
    auto result = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilterAggregate));
    ASSERT_TRUE(result.ok());
    clean = *result;
  }
  // Two media errors on the first chunk reads: inside the sync facade's
  // retry budget (3), so the scan succeeds with identical output.
  Rig rig(2, sim::FaultPlan().Always(sim::FaultSite::kNvmeReadError, 2));
  auto result = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilterAggregate));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output, clean.output);
  EXPECT_EQ(rig.injector->InjectedCount(sim::FaultSite::kNvmeReadError), 2u);
  // Same bytes moved: retries reissue the same command, they do not refetch
  // at a different granularity.
  EXPECT_EQ(result->stats.device_bytes_moved, clean.stats.device_bytes_moved);
}

TEST(ScanKernelFaultTest, PersistentMediaErrorFailsCleanlyAndReleasesSlot) {
  Rig rig(2, sim::FaultPlan().Always(sim::FaultSite::kNvmeReadError));
  auto result = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilter));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(rig.scheduler->free_regions(), rig.fabric->RegionCount());
}

TEST(ScanKernelFaultTest, ReconfigFailureMigratesToHealthyRegion) {
  ScanResult clean;
  {
    Rig rig;
    auto result = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilter));
    ASSERT_TRUE(result.ok());
    clean = *result;
  }
  Rig rig(2, sim::FaultPlan().Always(sim::FaultSite::kFpgaReconfigFail, 1));
  auto result = rig.kernel->Execute(*rig.table, DemoQuery(ScanKernelKind::kFilter));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output, clean.output);
  EXPECT_EQ(rig.scheduler->migrations(), 1u);
  EXPECT_EQ(rig.injector->InjectedCount(sim::FaultSite::kFpgaReconfigFail), 1u);
  // One region is left failed; a repair returns it to service.
  EXPECT_TRUE(rig.fabric->IsFailed(0));
  ASSERT_TRUE(rig.fabric->Repair(0).ok());
  EXPECT_FALSE(rig.fabric->IsFailed(0));
}

TEST(ScanKernelFaultTest, RerunsWithSameFaultPlanAreBitIdentical) {
  auto run = [] {
    Rig rig(2, sim::FaultPlan()
                   .Always(sim::FaultSite::kFpgaReconfigFail, 1)
                   .Always(sim::FaultSite::kNvmeReadError, 2));
    std::vector<ScanResult> results;
    for (auto kind : {ScanKernelKind::kFilter, ScanKernelKind::kGroupedSum,
                      ScanKernelKind::kFilter}) {
      auto result = rig.kernel->Execute(*rig.table, DemoQuery(kind));
      CHECK_OK(result.status());
      results.push_back(*result);
    }
    return results;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "diverged at query " << i;  // full stats equality
  }
}

// -- Wire codecs --------------------------------------------------------------

TEST(ScanWireTest, QueryRoundTrips) {
  ScanQuery query = DemoQuery(ScanKernelKind::kGroupedSum,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max());
  auto parsed = format::ParseScanQuery(format::SerializeScanQuery(query));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, query);
}

TEST(ScanWireTest, ResultRoundTrips) {
  ScanResult result;
  result.output.rows_scanned = 100;
  result.output.rows_matched = 7;
  result.output.match_hash = 0xdeadbeefcafef00dull;
  result.output.agg = {7, -42, std::numeric_limits<int64_t>::min(),
                       std::numeric_limits<int64_t>::max()};
  result.output.groups = {{"emea", -1}, {"r3", 1ll << 60}};
  result.stats.groups_total = 16;
  result.stats.groups_skipped = 13;
  result.stats.chunk_bytes_fetched = 12345;
  result.stats.device_bytes_moved = 16384;
  result.stats.reconfigured = true;
  result.stats.reconfig_ns = 11 * sim::kMillisecond;
  result.stats.exec_ns = 1234567;
  auto parsed = format::ParseScanResult(format::SerializeScanResult(result));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, result);
}

TEST(ScanWireTest, CorruptPayloadsRejected) {
  EXPECT_FALSE(format::ParseScanQuery({}).ok());
  Bytes bad_kind = format::SerializeScanQuery(DemoQuery(ScanKernelKind::kFilter));
  bad_kind[0] = 0x7f;
  EXPECT_FALSE(format::ParseScanQuery(bad_kind).ok());
  ScanResult result;
  result.output.groups = {{"g", 1}};
  Bytes wire = format::SerializeScanResult(result);
  for (size_t len = 0; len < wire.size(); ++len) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(format::ParseScanResult(prefix).ok()) << "length " << len;
  }
  // Implausible group count must not reserve gigabytes.
  Bytes evil = wire;
  evil[7 * 8] = 0xff;
  evil[7 * 8 + 1] = 0xff;
  evil[7 * 8 + 2] = 0xff;
  evil[7 * 8 + 3] = 0xff;
  EXPECT_FALSE(format::ParseScanResult(evil).ok());
}

// -- Mixed KV + analytics cluster ---------------------------------------------

load::OverloadClusterOptions MixedOptions(bool spatial = true) {
  load::OverloadClusterOptions options;
  options.workload = load::OverloadWorkload::kLsmKv;
  options.num_clients = 2;
  options.requests_per_client = 24;
  options.interarrival = 30 * sim::kMicrosecond;
  options.kv_key_space = 64;
  options.analytics_clients = 2;
  options.scan_requests_per_client = 4;
  options.scan_interarrival = 300 * sim::kMicrosecond;
  options.scan_table_rows = 4096;
  options.scan_rows_per_group = 512;
  options.analytics_spatial = spatial;
  return options;
}

TEST(MixedTenantTest, ScanArmCompletesAndAccountsPushdown) {
  load::OverloadCluster cluster(MixedOptions());
  const load::OverloadResult result = cluster.Run();
  EXPECT_EQ(result.scan_issued, 8u);
  EXPECT_EQ(result.scan_ok, 8u);
  EXPECT_EQ(result.scan_failed, 0u);
  EXPECT_NE(result.scan_fingerprint, 0u);
  EXPECT_GT(result.scan_rows_matched, 0u);
  EXPECT_GT(result.scan_groups_skipped, 0u);
  EXPECT_GT(result.scan_device_bytes, 0u);
  EXPECT_GT(result.scan_reconfigs, 0u);
  EXPECT_GE(result.scan_reconfig_p50_ns, 10 * sim::kMillisecond);
  EXPECT_LE(result.scan_reconfig_max_ns, 100 * sim::kMillisecond);
  // KV side unaffected in structure: all issued, none lost.
  EXPECT_EQ(result.issued, 48u);
  EXPECT_EQ(result.ok + result.rejected + result.failed + result.deadline_missed, 48u);
}

TEST(MixedTenantTest, BitIdenticalAcrossShardLayouts) {
  testutil::ExpectLayoutInvariant<load::OverloadCluster>(MixedOptions());
}

TEST(MixedTenantTest, SharedPipelineArmIsDeterministicToo) {
  const load::OverloadResult golden =
      testutil::ExpectLayoutInvariant<load::OverloadCluster>(MixedOptions(/*spatial=*/false));
  EXPECT_EQ(golden.scan_ok, golden.scan_issued);
}

TEST(MixedTenantTest, SpatialMultiplexingIsolatesKvGoodput) {
  // Same offered load; the only difference is whether scans share the KV
  // pipeline. A scan costs tens of milliseconds (ICAP reconfiguration plus
  // the streamed row groups), so on the shared arm every KV request queued
  // behind one blows its 1 ms deadline: head-of-line blocking shows up as a
  // goodput collapse, not in the p99 of the few in-deadline survivors.
  const load::OverloadResult spatial =
      load::OverloadCluster(MixedOptions(/*spatial=*/true)).Run();
  const load::OverloadResult shared =
      load::OverloadCluster(MixedOptions(/*spatial=*/false)).Run();
  EXPECT_EQ(spatial.scan_fingerprint, shared.scan_fingerprint);  // same answers
  EXPECT_EQ(spatial.scan_ok, shared.scan_ok);
  // Spatial arm: scans run beside the KV pipeline, so KV goodput is intact.
  EXPECT_EQ(spatial.ok, spatial.issued);
  EXPECT_EQ(spatial.deadline_missed, 0u);
  // Shared arm: most KV requests miss their deadline behind in-flight scans.
  EXPECT_GT(shared.deadline_missed, shared.issued / 2);
  EXPECT_LT(shared.ok, spatial.ok / 4);
}

TEST(MixedTenantTest, NvmeFaultMidScanLosesNoAckedQuery) {
  load::OverloadClusterOptions options = MixedOptions();
  const load::OverloadResult clean = load::OverloadCluster(options).Run();
  options.scan_faults = sim::FaultPlan().Always(sim::FaultSite::kNvmeReadError, 2);
  load::OverloadCluster faulted(options);
  const load::OverloadResult result = faulted.Run();
  ASSERT_NE(faulted.scan_injector(), nullptr);
  EXPECT_EQ(faulted.scan_injector()->InjectedCount(sim::FaultSite::kNvmeReadError), 2u);
  // Recovery inside the retry budget: every scan still acked, and the
  // answers are bit-identical to the fault-free run.
  EXPECT_EQ(result.scan_ok, result.scan_issued);
  EXPECT_EQ(result.scan_fingerprint, clean.scan_fingerprint);
  EXPECT_EQ(result.scan_rows_matched, clean.scan_rows_matched);
}

TEST(MixedTenantTest, ReconfigFaultMidScanMigratesWithoutLoss) {
  load::OverloadClusterOptions options = MixedOptions();
  const load::OverloadResult clean = load::OverloadCluster(options).Run();
  options.scan_faults = sim::FaultPlan().Always(sim::FaultSite::kFpgaReconfigFail, 1);
  load::OverloadCluster faulted(options);
  const load::OverloadResult result = faulted.Run();
  EXPECT_EQ(faulted.scan_injector()->InjectedCount(sim::FaultSite::kFpgaReconfigFail), 1u);
  EXPECT_EQ(result.scan_ok, result.scan_issued);
  EXPECT_EQ(result.scan_fingerprint, clean.scan_fingerprint);
}

TEST(MixedTenantTest, FaultedRunsAreBitIdenticalAcrossLayouts) {
  load::OverloadClusterOptions options = MixedOptions();
  options.scan_faults = sim::FaultPlan()
                            .Always(sim::FaultSite::kNvmeReadError, 2)
                            .Always(sim::FaultSite::kFpgaReconfigFail, 1);
  testutil::ExpectLayoutInvariant<load::OverloadCluster>(
      options, [](load::OverloadCluster& cluster) {
        EXPECT_EQ(cluster.scan_injector()->InjectedCount(sim::FaultSite::kNvmeReadError), 2u);
      });
}

}  // namespace
}  // namespace hyperion
