// Streaming Parquet scan kernels: predicate + projection pushdown executed
// on the FPGA fabric, reading row groups directly from NVMe (paper §2.3,
// FpgaHub's "FPGA as the data hub", Diba's reconfigurable operators).
//
// The pipeline this models:
//
//   NVMe flash --(chunk-granular DMA)--> fabric region --(scan kernel)--> result
//
// No host bounce: only the footer and the column chunks a query actually
// needs cross the device link (zone maps prune whole row groups before any
// data page is fetched), and the filter/aggregate circuit consumes the
// stream at line rate. Each query kind is its own partial bitstream, swapped
// onto a region by fpga::SlotScheduler via ICAP partial reconfiguration —
// the 10-100 ms band the paper cites, measured end to end by E18.
//
// `EvaluateScanQuery` is the one shared evaluation loop: the FPGA kernel
// prices it in fabric cycles, `baseline::HostScanPath` prices the identical
// loop in host CPU cycles after bouncing the whole file through DRAM. Both
// produce bit-identical ScanOutput — the bytes-moved delta is the
// architecture, not the answer.

#ifndef HYPERION_SRC_FORMAT_SCAN_KERNEL_H_
#define HYPERION_SRC_FORMAT_SCAN_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/format/parquet.h"
#include "src/format/scan.h"
#include "src/fpga/scheduler.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"

namespace hyperion::format {

// -- Query model -------------------------------------------------------------

// Which circuit the query needs resident. Each kind is a distinct partial
// bitstream; switching kinds on a region costs an ICAP reconfiguration.
enum class ScanKernelKind : uint8_t {
  kFilter = 0,           // WHERE filter_column IN [lo, hi] (count + hash)
  kFilterAggregate = 1,  // ... plus count/sum/min/max of value_column
  kGroupedSum = 2,       // ... plus GROUP BY group_column SUM(value_column)
};
inline constexpr size_t kScanKernelKindCount = 3;

// Stable lower_snake name ("filter", ...), used in bitstream names/counters.
std::string_view ScanKernelName(ScanKernelKind kind);

struct ScanQuery {
  ScanKernelKind kind = ScanKernelKind::kFilter;
  std::string filter_column;  // int64 predicate column
  int64_t lo = 0;             // inclusive range, both edges
  int64_t hi = 0;
  std::string value_column;  // int64, for kFilterAggregate / kGroupedSum
  std::string group_column;  // string, for kGroupedSum

  bool operator==(const ScanQuery&) const = default;
};

// What a scan ships back over the wire. Matched rows are witnessed by
// (rows_matched, match_hash) rather than materialized wholesale — the
// pushdown argument is precisely that results are small next to the data.
struct ScanOutput {
  uint64_t rows_scanned = 0;  // rows in groups the zone maps could not prune
  uint64_t rows_matched = 0;
  // FNV-1a over the matched filter-column values, in row-group order: a
  // bit-identity witness of exactly which rows matched.
  uint64_t match_hash = 0;
  Int64Aggregates agg;  // kFilterAggregate (zero otherwise)
  // kGroupedSum: (group, sum) pairs, sorted by group (empty otherwise).
  std::vector<std::pair<std::string, int64_t>> groups;

  bool operator==(const ScanOutput&) const = default;

  // Order-sensitive digest of every field — what the determinism oracles
  // fold across shard layouts.
  uint64_t Fingerprint() const;
};

// Bytes-moved + latency accounting, the currency of experiment E18.
struct ScanStats {
  uint64_t groups_total = 0;
  uint64_t groups_skipped = 0;        // pruned by zone maps, never fetched
  uint64_t chunk_bytes_fetched = 0;   // footer + chunk bytes the reader asked for
  uint64_t device_bytes_moved = 0;    // LBA-rounded bytes the device shipped
  uint64_t host_bytes_copied = 0;     // kernel->user copies (0 on the fabric path)
  bool reconfigured = false;          // this query paid an ICAP load
  uint64_t reconfig_ns = 0;
  uint64_t exec_ns = 0;               // open + stream + evaluate, after placement

  bool operator==(const ScanStats&) const = default;
};

struct ScanResult {
  ScanOutput output;
  ScanStats stats;

  bool operator==(const ScanResult&) const = default;
};

// -- Wire codecs (RPC payloads of the analytics service) ---------------------

Bytes SerializeScanQuery(const ScanQuery& query);
Result<ScanQuery> ParseScanQuery(ByteSpan payload);
Bytes SerializeScanResult(const ScanResult& result);
Result<ScanResult> ParseScanResult(ByteSpan payload);

// -- Shared evaluation loop --------------------------------------------------

// Charges `bytes` of chunk stream + `rows` of per-row work to whatever
// substrate executes the scan. Returning non-OK aborts the scan (e.g. the
// fabric region failed mid-query).
using ScanChargeFn = std::function<Status(uint64_t bytes, uint64_t rows)>;

// Group-at-a-time streaming evaluation: for each row group, consult the
// zone map (ZoneMapExcludes — inclusive [lo,hi], unmapped groups never
// skipped), fetch only the chunks of the columns the query touches, charge
// the substrate, filter, fold aggregates. Fills stats->groups_total,
// groups_skipped, chunk_bytes_fetched; the caller owns the device/host
// byte accounting. Output is independent of the substrate by construction.
Result<ScanOutput> EvaluateScanQuery(ParquetReader& reader, const ScanQuery& query,
                                     const ScanChargeFn& charge, ScanStats* stats);

// -- Parquet-on-NVMe placement -----------------------------------------------

// A Parquet file resident on an NVMe namespace at a fixed LBA extent, with
// chunk-granular fetch: ChunkFetch() reads exactly the LBAs covering a
// requested byte range (device moves LBA-rounded bytes; the reader sees the
// byte-exact slice). Copyable handle over shared state so the FetchFn
// closures and the owner observe one bytes-moved counter.
class NvmeParquetFile {
 public:
  // Writes `file` (LBA-padded) to [base_lba, ...) of `nsid`.
  static Result<NvmeParquetFile> Store(nvme::Controller* nvme, uint32_t nsid, uint64_t base_lba,
                                       ByteSpan file);

  uint64_t file_size() const { return state_->file_size; }

  // FetchFn for ParquetReader::Open: byte-exact view, LBA-rounded device
  // traffic, every read accounted in device_bytes_moved().
  ParquetReader::FetchFn ChunkFetch() const;

  // Raw extent read (the host baseline streams the whole file through this).
  Result<Bytes> ReadDevice(uint64_t offset, uint64_t length) const;

  // Total LBA-rounded bytes the device shipped through this handle.
  uint64_t device_bytes_moved() const { return state_->device_bytes; }

 private:
  struct State {
    nvme::Controller* nvme = nullptr;
    uint32_t nsid = 0;
    uint64_t base_lba = 0;
    uint64_t file_size = 0;
    uint64_t device_bytes = 0;
  };
  explicit NvmeParquetFile(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

// -- The FPGA scan kernel ----------------------------------------------------

struct ScanKernelConfig {
  // Streaming datapath: bytes of chunk data consumed per fabric cycle
  // (a 512-bit AXI stream), plus a per-row evaluate slot.
  uint64_t bytes_per_cycle = 64;
  uint64_t setup_cycles = 2000;  // CSR writes, footer walk, pipeline fill
  uint64_t per_row_cycles = 1;
  double fmax_mhz = 250.0;
  // Partial bitstream sizes per kind; at the default 400 MB/s ICAP these
  // land reconfiguration in the paper's 10-100 ms band (11-18 ms).
  uint64_t bitstream_bytes[kScanKernelKindCount] = {
      3584 * 1024,  // filter: comparators + popcount
      4608 * 1024,  // filter+aggregate: adds an accumulate tree
      6144 * 1024,  // grouped sum: adds a hash table + dictionary decode
  };
  fpga::TenantId tenant = fpga::kNoTenant;
};

// Executes ScanQuerys against NVMe-resident Parquet files on a fabric
// region, acquiring the kind's bitstream through the slot scheduler (a
// resident hit is free; a miss pays ICAP reconfiguration, measured in
// ScanStats). One instance serves many tables and queries.
class FpgaScanKernel {
 public:
  FpgaScanKernel(sim::Engine* engine, fpga::Fabric* fabric, fpga::SlotScheduler* scheduler,
                 ScanKernelConfig config = ScanKernelConfig());

  // Runs `query` over `table` end to end: acquire slot, stream surviving
  // chunks from NVMe, evaluate, release. The region is released on every
  // path, including mid-scan faults.
  Result<ScanResult> Execute(const NvmeParquetFile& table, const ScanQuery& query);

  const ScanKernelConfig& config() const { return config_; }

 private:
  Status ExecuteOnRegion(fpga::RegionId region, const NvmeParquetFile& table,
                         const ScanQuery& query, ScanResult* out);

  sim::Engine* engine_;
  fpga::Fabric* fabric_;
  fpga::SlotScheduler* scheduler_;
  ScanKernelConfig config_;
};

}  // namespace hyperion::format

#endif  // HYPERION_SRC_FORMAT_SCAN_KERNEL_H_
