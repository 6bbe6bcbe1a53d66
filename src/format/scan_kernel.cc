#include "src/format/scan_kernel.h"

#include <algorithm>
#include <map>

#include "src/nvme/flash.h"

namespace hyperion::format {

namespace {

// Incremental FNV-1a fold of one 64-bit value (little-endian bytes).
uint64_t FnvFold64(uint64_t hash, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

// Folds a per-group partial aggregate into the running one. An empty part
// contributes nothing (count == 0 is the "no rows" discriminant).
void MergeAggregates(Int64Aggregates* into, const Int64Aggregates& part) {
  if (part.count == 0) {
    return;
  }
  if (into->count == 0) {
    *into = part;
    return;
  }
  into->count += part.count;
  into->sum = WrapAddInt64(into->sum, part.sum);
  into->min = std::min(into->min, part.min);
  into->max = std::max(into->max, part.max);
}

}  // namespace

std::string_view ScanKernelName(ScanKernelKind kind) {
  switch (kind) {
    case ScanKernelKind::kFilter:
      return "filter";
    case ScanKernelKind::kFilterAggregate:
      return "filter_aggregate";
    case ScanKernelKind::kGroupedSum:
      return "grouped_sum";
  }
  return "unknown";
}

uint64_t ScanOutput::Fingerprint() const {
  uint64_t h = kFnvOffset;
  h = FnvFold64(h, rows_scanned);
  h = FnvFold64(h, rows_matched);
  h = FnvFold64(h, match_hash);
  h = FnvFold64(h, agg.count);
  h = FnvFold64(h, static_cast<uint64_t>(agg.sum));
  h = FnvFold64(h, static_cast<uint64_t>(agg.min));
  h = FnvFold64(h, static_cast<uint64_t>(agg.max));
  h = FnvFold64(h, groups.size());
  for (const auto& [name, sum] : groups) {
    h = FnvFold64(h, Fnv1a64(ToBytes(name)));
    h = FnvFold64(h, static_cast<uint64_t>(sum));
  }
  return h;
}

// -- Wire codecs -------------------------------------------------------------

Bytes SerializeScanQuery(const ScanQuery& query) {
  ByteWriter w(64);
  w.PutU8(static_cast<uint8_t>(query.kind));
  w.PutString(query.filter_column);
  w.PutU64(static_cast<uint64_t>(query.lo));
  w.PutU64(static_cast<uint64_t>(query.hi));
  w.PutString(query.value_column);
  w.PutString(query.group_column);
  return w.Take();
}

Result<ScanQuery> ParseScanQuery(ByteSpan payload) {
  ByteReader r(payload);
  ScanQuery q;
  const uint8_t kind = r.ReadU8();
  if (kind >= kScanKernelKindCount) {
    return InvalidArgument("unknown scan kernel kind");
  }
  q.kind = static_cast<ScanKernelKind>(kind);
  q.filter_column = r.ReadString();
  q.lo = static_cast<int64_t>(r.ReadU64());
  q.hi = static_cast<int64_t>(r.ReadU64());
  q.value_column = r.ReadString();
  q.group_column = r.ReadString();
  if (!r.Ok()) {
    return DataLoss("truncated scan query");
  }
  return q;
}

Bytes SerializeScanResult(const ScanResult& result) {
  const ScanOutput& o = result.output;
  const ScanStats& s = result.stats;
  ByteWriter w(128);
  w.PutU64(o.rows_scanned);
  w.PutU64(o.rows_matched);
  w.PutU64(o.match_hash);
  w.PutU64(o.agg.count);
  w.PutU64(static_cast<uint64_t>(o.agg.sum));
  w.PutU64(static_cast<uint64_t>(o.agg.min));
  w.PutU64(static_cast<uint64_t>(o.agg.max));
  w.PutU32(static_cast<uint32_t>(o.groups.size()));
  for (const auto& [name, sum] : o.groups) {
    w.PutString(name);
    w.PutU64(static_cast<uint64_t>(sum));
  }
  w.PutU64(s.groups_total);
  w.PutU64(s.groups_skipped);
  w.PutU64(s.chunk_bytes_fetched);
  w.PutU64(s.device_bytes_moved);
  w.PutU64(s.host_bytes_copied);
  w.PutU8(s.reconfigured ? 1 : 0);
  w.PutU64(s.reconfig_ns);
  w.PutU64(s.exec_ns);
  return w.Take();
}

Result<ScanResult> ParseScanResult(ByteSpan payload) {
  ByteReader r(payload);
  ScanResult out;
  ScanOutput& o = out.output;
  o.rows_scanned = r.ReadU64();
  o.rows_matched = r.ReadU64();
  o.match_hash = r.ReadU64();
  o.agg.count = r.ReadU64();
  o.agg.sum = static_cast<int64_t>(r.ReadU64());
  o.agg.min = static_cast<int64_t>(r.ReadU64());
  o.agg.max = static_cast<int64_t>(r.ReadU64());
  const uint32_t group_count = r.ReadU32();
  // Each group needs >= 12 bytes (length + u64); bound before reserving.
  if (!r.Ok() || uint64_t{group_count} * 12 > r.remaining()) {
    return DataLoss("implausible scan result group count");
  }
  o.groups.reserve(group_count);
  for (uint32_t i = 0; i < group_count; ++i) {
    std::string name = r.ReadString();
    const int64_t sum = static_cast<int64_t>(r.ReadU64());
    if (!r.Ok()) {
      return DataLoss("truncated scan result groups");
    }
    o.groups.emplace_back(std::move(name), sum);
  }
  ScanStats& s = out.stats;
  s.groups_total = r.ReadU64();
  s.groups_skipped = r.ReadU64();
  s.chunk_bytes_fetched = r.ReadU64();
  s.device_bytes_moved = r.ReadU64();
  s.host_bytes_copied = r.ReadU64();
  s.reconfigured = r.ReadU8() != 0;
  s.reconfig_ns = r.ReadU64();
  s.exec_ns = r.ReadU64();
  if (!r.Ok()) {
    return DataLoss("truncated scan result");
  }
  return out;
}

// -- Shared evaluation loop --------------------------------------------------

Result<ScanOutput> EvaluateScanQuery(ParquetReader& reader, const ScanQuery& query,
                                     const ScanChargeFn& charge, ScanStats* stats) {
  ASSIGN_OR_RETURN(size_t filter_idx, reader.FieldIndex(query.filter_column));
  if (reader.schema()[filter_idx].type != ColumnType::kInt64) {
    return InvalidArgument("scan filter column is not int64");
  }

  // Projection: only the columns the query touches are ever fetched.
  std::vector<std::string> columns = {query.filter_column};
  if (query.kind != ScanKernelKind::kFilter && query.value_column != query.filter_column) {
    columns.push_back(query.value_column);
  }
  if (query.kind == ScanKernelKind::kGroupedSum && query.group_column != query.filter_column &&
      query.group_column != query.value_column) {
    columns.push_back(query.group_column);
  }
  // Validate the projection up front so a bad query fails before any fetch.
  for (const auto& name : columns) {
    ASSIGN_OR_RETURN(size_t ignored, reader.FieldIndex(name));
    (void)ignored;
  }

  ScanOutput out;
  out.match_hash = kFnvOffset;
  std::map<std::string, int64_t> grouped;

  const size_t group_count = reader.RowGroupCount();
  uint64_t skipped = 0;
  const uint64_t fetched_before = reader.bytes_fetched();
  for (size_t g = 0; g < group_count; ++g) {
    const RowGroupMeta& meta = reader.GroupMeta(g);
    if (ZoneMapExcludes(meta.chunks[filter_idx], query.lo, query.hi)) {
      ++skipped;
      continue;
    }
    const uint64_t group_fetch_before = reader.bytes_fetched();
    ASSIGN_OR_RETURN(RecordBatch batch, reader.ReadRowGroup(g, columns));
    if (charge) {
      Status charged = charge(reader.bytes_fetched() - group_fetch_before, batch.rows());
      if (!charged.ok()) {
        return charged;
      }
    }
    out.rows_scanned += batch.rows();
    ASSIGN_OR_RETURN(RecordBatch matched, FilterInt64(batch, query.filter_column, query.lo,
                                                      query.hi));
    out.rows_matched += matched.rows();
    ASSIGN_OR_RETURN(size_t midx, matched.ColumnIndex(query.filter_column));
    for (int64_t v : matched.Int64Column(midx)) {
      out.match_hash = FnvFold64(out.match_hash, static_cast<uint64_t>(v));
    }
    switch (query.kind) {
      case ScanKernelKind::kFilter:
        break;
      case ScanKernelKind::kFilterAggregate: {
        ASSIGN_OR_RETURN(Int64Aggregates part, AggregateInt64(matched, query.value_column));
        MergeAggregates(&out.agg, part);
        break;
      }
      case ScanKernelKind::kGroupedSum: {
        ASSIGN_OR_RETURN(auto part, GroupedSum(matched, query.group_column, query.value_column));
        for (const auto& [name, sum] : part) {
          int64_t& into = grouped[name];
          into = WrapAddInt64(into, sum);
        }
        break;
      }
    }
  }
  if (query.kind == ScanKernelKind::kGroupedSum) {
    out.groups.assign(grouped.begin(), grouped.end());
  }
  if (stats != nullptr) {
    stats->groups_total += group_count;
    stats->groups_skipped += skipped;
    stats->chunk_bytes_fetched += reader.bytes_fetched() - fetched_before;
  }
  return out;
}

// -- Parquet-on-NVMe placement -----------------------------------------------

Result<NvmeParquetFile> NvmeParquetFile::Store(nvme::Controller* nvme, uint32_t nsid,
                                               uint64_t base_lba, ByteSpan file) {
  if (file.empty()) {
    return InvalidArgument("cannot store an empty parquet file");
  }
  Bytes padded(file.begin(), file.end());
  const size_t tail = padded.size() % nvme::kLbaSize;
  if (tail != 0) {
    padded.resize(padded.size() + (nvme::kLbaSize - tail));
  }
  Status written = nvme->Write(nsid, base_lba, padded);
  if (!written.ok()) {
    return written;
  }
  auto state = std::make_shared<State>();
  state->nvme = nvme;
  state->nsid = nsid;
  state->base_lba = base_lba;
  state->file_size = file.size();
  return NvmeParquetFile(std::move(state));
}

Result<Bytes> NvmeParquetFile::ReadDevice(uint64_t offset, uint64_t length) const {
  State& s = *state_;
  if (length > s.file_size || offset > s.file_size - length) {
    return OutOfRange("read past parquet extent");
  }
  if (length == 0) {
    return Bytes{};
  }
  const uint64_t first = offset / nvme::kLbaSize;
  const uint64_t last = (offset + length - 1) / nvme::kLbaSize;
  const uint64_t blocks = last - first + 1;
  ASSIGN_OR_RETURN(Bytes raw, s.nvme->Read(s.nsid, s.base_lba + first,
                                           static_cast<uint32_t>(blocks)));
  s.device_bytes += blocks * nvme::kLbaSize;
  const uint64_t skip = offset - first * nvme::kLbaSize;
  return Bytes(raw.begin() + static_cast<ptrdiff_t>(skip),
               raw.begin() + static_cast<ptrdiff_t>(skip + length));
}

ParquetReader::FetchFn NvmeParquetFile::ChunkFetch() const {
  // Capture the handle (shared state) by value: the closure outlives `this`.
  NvmeParquetFile self = *this;
  return [self](uint64_t offset, uint64_t length) { return self.ReadDevice(offset, length); };
}

// -- The FPGA scan kernel ----------------------------------------------------

FpgaScanKernel::FpgaScanKernel(sim::Engine* engine, fpga::Fabric* fabric,
                               fpga::SlotScheduler* scheduler, ScanKernelConfig config)
    : engine_(engine), fabric_(fabric), scheduler_(scheduler), config_(config) {}

Result<ScanResult> FpgaScanKernel::Execute(const NvmeParquetFile& table, const ScanQuery& query) {
  if (static_cast<size_t>(query.kind) >= kScanKernelKindCount) {
    return InvalidArgument("unknown scan kernel kind");
  }
  fpga::Bitstream bitstream;
  bitstream.name = std::string("scan/") + std::string(ScanKernelName(query.kind));
  bitstream.size_bytes = config_.bitstream_bytes[static_cast<size_t>(query.kind)];
  bitstream.fmax_mhz = config_.fmax_mhz;
  bitstream.tenant = config_.tenant;
  ASSIGN_OR_RETURN(fpga::SlotScheduler::Placement placement, scheduler_->Acquire(bitstream));

  ScanResult result;
  result.stats.reconfigured = placement.reconfigured;
  result.stats.reconfig_ns = static_cast<uint64_t>(placement.reconfig_latency);
  Status run = ExecuteOnRegion(placement.region, table, query, &result);
  Status released = scheduler_->Release(placement.region);
  if (!run.ok()) {
    return run;
  }
  if (!released.ok()) {
    return released;
  }
  return result;
}

Status FpgaScanKernel::ExecuteOnRegion(fpga::RegionId region, const NvmeParquetFile& table,
                                       const ScanQuery& query, ScanResult* out) {
  const sim::SimTime start = engine_->Now();
  const uint64_t device_before = table.device_bytes_moved();

  // Footer fetch rides the same accounted device path as the chunks.
  ASSIGN_OR_RETURN(ParquetReader reader, ParquetReader::Open(table.file_size(),
                                                             table.ChunkFetch()));
  Result<sim::Duration> setup = fabric_->Execute(region, config_.setup_cycles);
  if (!setup.ok()) {
    return setup.status();
  }
  const ScanChargeFn charge = [this, region](uint64_t bytes, uint64_t rows) -> Status {
    const uint64_t cycles =
        bytes / config_.bytes_per_cycle + rows * config_.per_row_cycles + 1;
    Result<sim::Duration> ran = fabric_->Execute(region, cycles);
    return ran.ok() ? Status::Ok() : ran.status();
  };
  ASSIGN_OR_RETURN(out->output, EvaluateScanQuery(reader, query, charge, &out->stats));
  out->stats.device_bytes_moved = table.device_bytes_moved() - device_before;
  out->stats.host_bytes_copied = 0;
  out->stats.exec_ns = static_cast<uint64_t>(engine_->Now() - start);
  return Status::Ok();
}

}  // namespace hyperion::format
