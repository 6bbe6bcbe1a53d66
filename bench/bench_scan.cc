// Experiment E18 — analytics scan pushdown (PR 10).
//
// Four experiment families:
//
//   E18/ScanPushdown/<kind>   one query shape (filter / filter_aggregate /
//       grouped_sum) over a 256k-row Parquet table stored on NVMe, executed
//       twice: as a streaming FPGA scan kernel reading row groups directly
//       from the device (zone-map skipping, chunk-granular fetches, no host
//       bounce), and on the src/baseline host path (whole-file block I/O
//       through the kernel stack, then decode on the CPU). The outputs are
//       CHECK-verified bit-identical; counters report both substrates:
//         fabric_scan_gbs      table bytes per simulated second, fabric path
//         host_scan_gbs        same, host path
//         fabric_moved_mb      device bytes moved by the fabric path
//         host_moved_mb        device bytes moved by the host path
//         bytes_ratio          host moved / fabric moved  (pushdown win)
//         groups_skipped_pct   row groups pruned by zone maps
//
//   E18/ReconfigSwap   alternating filter / grouped_sum queries on a
//       1-region fabric: every query pays an ICAP partial-reconfiguration
//       swap. Counters: reconfig_p50_ms / reconfig_max_ms (the paper's
//       10-100 ms band), swap rate, and scan throughput with swaps on the
//       critical path.
//
//   E18/MixedTenant/<arm>   the PR 5 OverloadCluster running KV traffic
//       and analytics scans concurrently on the same fabric. Arms:
//         kv_only    no analytics clients (baseline KV goodput/p99)
//         spatial    scans on their own endpoint + region set (spatial
//                    multiplexing) — KV goodput intact
//         shared     scans share the KV service pipeline — head-of-line
//                    blocking behind multi-ms scans collapses KV goodput
//       Counters: kv_goodput_pct, kv_p99_us, kv_miss_pct, scan_ok,
//       reconfig_p50_ms.
//
//   E18/ScanIdentity   determinism oracle: the mixed cluster re-run across
//       shard layouts {1,2,4} must produce bit-identical OverloadResults
//       (CHECK-aborts on divergence). Counter: layouts_ok.
//
// Regenerate the PR 10 numbers with
//   bench_scan --benchmark_filter='^E18' --benchmark_format=json > BENCH_PR10.json

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/baseline/scan.h"
#include "src/common/check.h"
#include "src/format/parquet.h"
#include "src/format/scan_kernel.h"
#include "src/fpga/fabric.h"
#include "src/fpga/scheduler.h"
#include "src/load/harness.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace {

using namespace hyperion;  // NOLINT

// The E18 table: 256k rows, 4k-row groups. order_id is sequential, so its
// per-group zone maps are tight and range predicates prune most groups.
format::RecordBatch ScanTable(uint64_t rows) {
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
  auto batch = format::RecordBatch::Make({{"order_id", format::ColumnType::kInt64},
                                          {"amount", format::ColumnType::kInt64},
                                          {"region", format::ColumnType::kString}},
                                         std::move(columns));
  CHECK_OK(batch.status());
  return std::move(*batch);
}

struct ScanRig {
  explicit ScanRig(uint64_t rows = 256 * 1024, uint32_t regions = 2)
      : nvme(&engine) {
    fpga::FabricConfig config;
    config.regions = regions;
    fabric = std::make_unique<fpga::Fabric>(&engine, config);
    scheduler = std::make_unique<fpga::SlotScheduler>(&engine, fabric.get());
    format::ParquetWriteOptions write_options;
    write_options.rows_per_group = 4096;
    auto file = format::WriteParquet(ScanTable(rows), write_options);
    CHECK_OK(file.status());
    file_size = file->size();
    const uint32_t nsid = nvme.AddNamespace(file_size / nvme::kLbaSize + 8);
    auto stored = format::NvmeParquetFile::Store(&nvme, nsid, 0, *file);
    CHECK_OK(stored.status());
    table = std::make_unique<format::NvmeParquetFile>(std::move(*stored));
    kernel = std::make_unique<format::FpgaScanKernel>(&engine, fabric.get(),
                                                      scheduler.get());
  }

  sim::Engine engine;
  nvme::Controller nvme;
  std::unique_ptr<fpga::Fabric> fabric;
  std::unique_ptr<fpga::SlotScheduler> scheduler;
  uint64_t file_size = 0;
  std::unique_ptr<format::NvmeParquetFile> table;
  std::unique_ptr<format::FpgaScanKernel> kernel;
};

format::ScanQuery QueryOf(format::ScanKernelKind kind, uint64_t rows, uint64_t seq) {
  format::ScanQuery query;
  query.kind = kind;
  query.filter_column = "order_id";
  const uint64_t span = rows / 16;  // 1/16 selectivity: zone maps prune hard
  const uint64_t lo = (seq * 0x9e3779b97f4a7c15ull >> 8) % (rows - span + 1);
  query.lo = static_cast<int64_t>(lo);
  query.hi = static_cast<int64_t>(lo + span - 1);
  query.value_column = "amount";
  query.group_column = "region";
  return query;
}

// -- E18/ScanPushdown ---------------------------------------------------------

void BM_ScanPushdown(benchmark::State& state) {
  const auto kind = static_cast<format::ScanKernelKind>(state.range(0));
  constexpr uint64_t kRows = 256 * 1024;
  constexpr int kQueries = 8;
  uint64_t fabric_moved = 0;
  uint64_t host_moved = 0;
  uint64_t table_bytes = 0;
  uint64_t groups_total = 0;
  uint64_t groups_skipped = 0;
  double fabric_seconds = 0;
  double host_seconds = 0;
  for (auto _ : state) {
    ScanRig rig(kRows);
    table_bytes = rig.file_size;
    baseline::HostScanPath host(&rig.engine);
    for (int q = 0; q < kQueries; ++q) {
      const format::ScanQuery query = QueryOf(kind, kRows, static_cast<uint64_t>(q));
      auto fpga = rig.kernel->Execute(*rig.table, query);
      CHECK_OK(fpga.status());
      auto cpu = host.Execute(*rig.table, query);
      CHECK_OK(cpu.status());
      // The pushdown oracle: identical answers from both substrates.
      CHECK(fpga->output == cpu->output) << "fabric/host scan divergence";
      fabric_moved += fpga->stats.device_bytes_moved;
      host_moved += cpu->stats.device_bytes_moved;
      groups_total += fpga->stats.groups_total;
      groups_skipped += fpga->stats.groups_skipped;
      fabric_seconds += sim::ToSeconds(fpga->stats.exec_ns);
      host_seconds += sim::ToSeconds(cpu->stats.exec_ns);
    }
  }
  const double scans = static_cast<double>(kQueries) * static_cast<double>(state.iterations());
  const double scanned_gb = scans * static_cast<double>(table_bytes) / 1e9;
  state.SetItemsProcessed(static_cast<int64_t>(2 * kQueries * kRows) *
                          state.iterations());  // rows scanned, both substrates
  state.counters["fabric_scan_gbs"] = fabric_seconds > 0 ? scanned_gb / fabric_seconds : 0;
  state.counters["host_scan_gbs"] = host_seconds > 0 ? scanned_gb / host_seconds : 0;
  state.counters["fabric_moved_mb"] = static_cast<double>(fabric_moved) / 1e6;
  state.counters["host_moved_mb"] = static_cast<double>(host_moved) / 1e6;
  state.counters["bytes_ratio"] =
      fabric_moved > 0 ? static_cast<double>(host_moved) / static_cast<double>(fabric_moved) : 0;
  state.counters["groups_skipped_pct"] =
      groups_total > 0
          ? 100.0 * static_cast<double>(groups_skipped) / static_cast<double>(groups_total)
          : 0;
}

// -- E18/ReconfigSwap ---------------------------------------------------------

void BM_ReconfigSwap(benchmark::State& state) {
  constexpr uint64_t kRows = 64 * 1024;
  constexpr int kQueries = 16;
  uint64_t p50 = 0;
  uint64_t max = 0;
  uint64_t swaps = 0;
  uint64_t scanned = 0;
  double sim_seconds = 0;
  for (auto _ : state) {
    // One region: filter and grouped_sum can never be resident together, so
    // the alternation forces an ICAP swap per query.
    ScanRig rig(kRows, /*regions=*/1);
    sim::Histogram reconfig;
    const sim::SimTime start = rig.engine.Now();
    for (int q = 0; q < kQueries; ++q) {
      const auto kind = (q % 2 == 0) ? format::ScanKernelKind::kFilter
                                     : format::ScanKernelKind::kGroupedSum;
      auto result = rig.kernel->Execute(*rig.table, QueryOf(kind, kRows, static_cast<uint64_t>(q)));
      CHECK_OK(result.status());
      if (result->stats.reconfigured) {
        ++swaps;
        reconfig.Record(result->stats.reconfig_ns);
      }
      scanned += rig.file_size;
    }
    sim_seconds += sim::ToSeconds(rig.engine.Now() - start);
    p50 = reconfig.P50();
    max = reconfig.max();
    // The paper's partial-reconfiguration band: every swap in 10-100 ms.
    CHECK_GE(p50, 10 * sim::kMillisecond);
    CHECK_LE(max, 100 * sim::kMillisecond);
  }
  state.SetItemsProcessed(static_cast<int64_t>(kQueries * kRows) * state.iterations());
  state.counters["reconfig_p50_ms"] = static_cast<double>(p50) / 1e6;
  state.counters["reconfig_max_ms"] = static_cast<double>(max) / 1e6;
  state.counters["swaps_per_query"] =
      static_cast<double>(swaps) / (static_cast<double>(kQueries) * state.iterations());
  state.counters["scan_gbs_with_swaps"] =
      sim_seconds > 0 ? static_cast<double>(scanned) / 1e9 / sim_seconds : 0;
}

// -- E18/MixedTenant ----------------------------------------------------------

load::OverloadClusterOptions MixedOptions(uint32_t analytics_clients, bool spatial) {
  load::OverloadClusterOptions options;
  options.workload = load::OverloadWorkload::kLsmKv;
  options.num_clients = 3;
  options.requests_per_client = 64;
  options.interarrival = 25 * sim::kMicrosecond;
  options.kv_key_space = 128;
  options.analytics_clients = analytics_clients;
  options.scan_requests_per_client = 6;
  options.scan_interarrival = 250 * sim::kMicrosecond;
  options.scan_table_rows = 8192;
  options.scan_rows_per_group = 512;
  options.analytics_spatial = spatial;
  return options;
}

void BM_MixedTenant(benchmark::State& state) {
  const auto analytics_clients = static_cast<uint32_t>(state.range(0));
  const bool spatial = state.range(1) != 0;
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t missed = 0;
  uint64_t p99 = 0;
  uint64_t scan_ok = 0;
  uint64_t reconfig_p50 = 0;
  for (auto _ : state) {
    load::OverloadCluster cluster(MixedOptions(analytics_clients, spatial));
    const load::OverloadResult result = cluster.Run();
    CHECK_EQ(result.failed, 0u);
    CHECK_EQ(result.scan_failed, 0u);
    CHECK_EQ(result.scan_ok, result.scan_issued);
    issued += result.issued;
    ok += result.ok;
    missed += result.deadline_missed;
    p99 = result.latency_p99_ns;
    scan_ok += result.scan_ok;
    reconfig_p50 = result.scan_reconfig_p50_ns;
  }
  state.SetItemsProcessed(static_cast<int64_t>(issued + scan_ok));
  state.counters["kv_goodput_pct"] =
      issued > 0 ? 100.0 * static_cast<double>(ok) / static_cast<double>(issued) : 0;
  state.counters["kv_p99_us"] = static_cast<double>(p99) / 1000.0;
  state.counters["kv_miss_pct"] =
      issued > 0 ? 100.0 * static_cast<double>(missed) / static_cast<double>(issued) : 0;
  state.counters["scan_ok"] = static_cast<double>(scan_ok) / state.iterations();
  state.counters["reconfig_p50_ms"] = static_cast<double>(reconfig_p50) / 1e6;
}

// -- E18/ScanIdentity ---------------------------------------------------------

void BM_ScanIdentity(benchmark::State& state) {
  uint64_t layouts = 0;
  uint64_t processed = 0;
  for (auto _ : state) {
    load::OverloadClusterOptions base = MixedOptions(2, /*spatial=*/true);
    base.num_shards = 1;
    load::OverloadCluster golden_cluster(base);
    const load::OverloadResult golden = golden_cluster.Run();
    CHECK_NE(golden.scan_fingerprint, 0u);
    layouts = 0;
    for (uint32_t shards : {1u, 2u, 4u}) {
      load::OverloadClusterOptions options = MixedOptions(2, /*spatial=*/true);
      options.num_shards = shards;
      load::OverloadCluster cluster(options);
      const load::OverloadResult result = cluster.Run();
      CHECK(result == golden) << "scan determinism violation: shards=" << shards;
      ++layouts;
      processed += result.issued + result.scan_issued;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(processed));
  state.counters["layouts_ok"] = static_cast<double>(layouts);
}

void RegisterAll() {
  for (int64_t kind = 0; kind < static_cast<int64_t>(format::kScanKernelKindCount); ++kind) {
    benchmark::RegisterBenchmark(
        (std::string("E18/ScanPushdown/") +
         std::string(format::ScanKernelName(static_cast<format::ScanKernelKind>(kind))))
            .c_str(),
        BM_ScanPushdown)
        ->Args({kind})
        ->Iterations(2)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("E18/ReconfigSwap", BM_ReconfigSwap)
      ->Iterations(2)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("E18/MixedTenant/kv_only", BM_MixedTenant)
      ->Args({0, 1})
      ->Iterations(2)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("E18/MixedTenant/spatial", BM_MixedTenant)
      ->Args({2, 1})
      ->Iterations(2)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("E18/MixedTenant/shared", BM_MixedTenant)
      ->Args({2, 0})
      ->Iterations(2)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("E18/ScanIdentity", BM_ScanIdentity)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

const int kRegistered = (RegisterAll(), 0);

}  // namespace
