#include "src/storage/lsm_engine.h"

#include <algorithm>
#include <functional>
#include <set>

#include "src/common/check.h"

namespace hyperion::storage {

namespace {

constexpr uint32_t kMaxLevels = 4;                // L0 .. L3
constexpr uint32_t kCompactionIoBlocks = 32;      // credits (commands) wanted per step
constexpr uint32_t kCompactionCreditReserve = 8;  // credits never taken from foreground
constexpr uint32_t kAppendBatchBlocks = 8;        // max blocks per zone-append command
constexpr double kMergeCyclesPerByte = 0.125;     // FPGA merge kernel cost
constexpr double kHostMergeNsPerByte = 1.0;       // fallback when no region is free
// Foreground proceeds after it when the credit gate is empty.
constexpr sim::Duration kCreditStallPenalty = 5 * sim::kMicrosecond;

// The compaction-merge accelerator: a streaming k-way merge kernel. Sized so
// residency costs a real reconfiguration but fits any region.
const fpga::Bitstream& MergeBitstream() {
  static const fpga::Bitstream kBitstream{
      .name = "lsm_compact_merge",
      .size_bytes = 3 * 1024 * 1024,
      .slices = 2,
      .fmax_mhz = 250.0,
      .tenant = 7,
  };
  return kBitstream;
}

// Approximate serialized footprint of one entry (block header share included).
size_t EntryBytes(uint64_t /*key*/, const std::optional<Bytes>& value) {
  return 13 + (value.has_value() ? value->size() : 0);
}

}  // namespace

LsmEngine::LsmEngine(const LsmDeps& deps, const LsmEngineOptions& options)
    : deps_(deps),
      options_(options),
      media_(std::make_unique<ZnsMedia>(deps.zns, deps.injector)),
      wal_(media_.get()),
      manifest_(media_.get(), 0, 1) {
  CHECK(deps_.engine != nullptr) << "LsmEngine needs a sim engine";
  CHECK(deps_.zns != nullptr) << "LsmEngine needs a zoned namespace";
  compact_cursor_.assign(kMaxLevels, 0);
}

Result<std::unique_ptr<LsmEngine>> LsmEngine::Format(const LsmDeps& deps,
                                                     const LsmEngineOptions& options) {
  if (deps.zns == nullptr || deps.engine == nullptr) {
    return InvalidArgument("LsmEngine needs an engine and a zoned namespace");
  }
  if (deps.zns->ZoneCount() < kMinZones) {
    return InvalidArgument("LsmEngine needs at least 4 zones (2 manifest, WAL, data)");
  }
  std::unique_ptr<LsmEngine> engine(new LsmEngine(deps, options));
  RETURN_IF_ERROR(engine->DoFormat());
  return engine;
}

Result<std::unique_ptr<LsmEngine>> LsmEngine::Open(const LsmDeps& deps,
                                                   const LsmEngineOptions& options) {
  if (deps.zns == nullptr || deps.engine == nullptr) {
    return InvalidArgument("LsmEngine needs an engine and a zoned namespace");
  }
  if (deps.zns->ZoneCount() < kMinZones) {
    return InvalidArgument("LsmEngine needs at least 4 zones (2 manifest, WAL, data)");
  }
  std::unique_ptr<LsmEngine> engine(new LsmEngine(deps, options));
  RETURN_IF_ERROR(engine->DoRecover());
  return engine;
}

Status LsmEngine::DoFormat() {
  for (uint32_t z = 0; z < deps_.zns->ZoneCount(); ++z) {
    RETURN_IF_ERROR(media_->Reset(z));
  }
  free_zones_.clear();
  for (uint32_t z = deps_.zns->ZoneCount(); z-- > 2;) {
    free_zones_.push_back(z);  // descending: lowest zone allocated first
  }
  state_ = VersionState{};
  state_.levels.resize(kMaxLevels);
  ASSIGN_OR_RETURN(uint32_t wal_zone, AllocZone());
  state_.wal_zones = {wal_zone};
  wal_.set_zone(wal_zone);
  RETURN_IF_ERROR(manifest_.Persist(state_));
  return Status::Ok();
}

Status LsmEngine::DoRecover() {
  const sim::SimTime t0 = deps_.engine->Now();
  obs::ScopedSpan span(deps_.tracer, deps_.engine, obs::Subsystem::kStore, "lsm.recover");

  ASSIGN_OR_RETURN(std::optional<VersionState> recovered, manifest_.Recover());
  if (!recovered.has_value()) {
    return NotFound("no valid manifest: the namespace was never formatted");
  }
  state_ = std::move(*recovered);
  if (state_.levels.size() < kMaxLevels) {
    state_.levels.resize(kMaxLevels);
  }
  compact_cursor_.assign(state_.levels.size(), 0);
  recovery_.recovered = true;
  recovery_.manifest_version = state_.version;

  // Load every live table's footer; rebuild zone refcounts.
  for (const auto& level : state_.levels) {
    for (const TableMeta& meta : level) {
      ASSIGN_OR_RETURN(TableIndex index, LoadTableIndex(media_.get(), meta));
      indexes_[meta.id] = std::move(index);
      AddTableZoneRefs(meta);
      ++recovery_.tables_loaded;
    }
  }

  // Zones no manifest version references: resets of orphans torn loose by
  // the crash (half-written tables, retired WAL zones never reset).
  std::set<uint32_t> used = {manifest_.zone_a(), manifest_.zone_b()};
  used.insert(state_.wal_zones.begin(), state_.wal_zones.end());
  for (const auto& [zone, refs] : zone_live_tables_) {
    used.insert(zone);
  }
  std::vector<uint32_t> free_ascending;
  for (uint32_t z = 0; z < deps_.zns->ZoneCount(); ++z) {
    if (used.contains(z)) {
      continue;
    }
    ASSIGN_OR_RETURN(nvme::Zone info, media_->zns()->Describe(z));
    if (info.write_pointer > info.start_lba) {
      RETURN_IF_ERROR(media_->Reset(z));
      ++recovery_.orphan_zones_reset;
    }
    free_ascending.push_back(z);
  }
  free_zones_.assign(free_ascending.rbegin(), free_ascending.rend());

  // Replay the WAL into the memtable, stopping at the torn tail.
  wal_.set_zone(state_.wal_zones.back());
  uint64_t max_seq = state_.last_flushed_seq;
  ASSIGN_OR_RETURN(
      WalReplayStats replay,
      ReplayWal(media_.get(), state_.wal_zones, state_.last_flushed_seq,
                [this, &max_seq](uint64_t seq, uint8_t kind, uint64_t key, ByteSpan value) {
                  max_seq = std::max(max_seq, seq);
                  ApplyToMemtable(key, kind == kWalPut
                                           ? std::make_optional(Bytes(value.begin(), value.end()))
                                           : std::nullopt);
                }));
  recovery_.wal_records_replayed = replay.records;
  recovery_.wal_torn_groups = replay.torn_groups;
  recovery_.recovered_seq = max_seq;
  next_seq_ = std::max(state_.next_seq, max_seq + 1);
  state_.next_seq = next_seq_;
  last_acked_seq_ = max_seq;

  // Truncate the log: the tail zone may hold a torn group that a later
  // replay would mis-read as the log's end, silently dropping everything
  // appended after it. Fold the replayed records into an SSTable (or just
  // rotate, when there were none) so the WAL restarts on a fresh zone.
  if (!memtable_.empty()) {
    RETURN_IF_ERROR(FlushLocked());
  } else {
    ASSIGN_OR_RETURN(uint32_t fresh, AllocZone());
    VersionState next = state_;
    next.wal_zones = {fresh};
    Status persisted = manifest_.Persist(next);
    if (!persisted.ok()) {
      free_zones_.push_back(fresh);
      return persisted;
    }
    std::vector<uint32_t> old_zones = std::move(state_.wal_zones);
    state_ = std::move(next);
    wal_.set_zone(fresh);
    for (uint32_t z : old_zones) {
      RETURN_IF_ERROR(media_->Reset(z));
      auto it = std::lower_bound(free_zones_.begin(), free_zones_.end(), z,
                                 std::greater<uint32_t>());
      free_zones_.insert(it, z);
    }
  }

  recovery_.recovery_ns = deps_.engine->Now() - t0;
  return Status::Ok();
}

// -- Foreground -------------------------------------------------------------

Status LsmEngine::CheckAlive() const {
  if (dead()) {
    return Unavailable("LSM engine crashed: reopen required");
  }
  return Status::Ok();
}

Result<uint64_t> LsmEngine::Put(uint64_t key, ByteSpan value) {
  if (value.size() > kLsmMaxValueLen) {
    return InvalidArgument("value exceeds kLsmMaxValueLen");
  }
  uint64_t seq = 0;
  RETURN_IF_ERROR(Mutate(kWalPut, key, value, &seq));
  ++stats_.puts;
  return seq;
}

Result<uint64_t> LsmEngine::Delete(uint64_t key) {
  uint64_t seq = 0;
  RETURN_IF_ERROR(Mutate(kWalDelete, key, ByteSpan{}, &seq));
  ++stats_.deletes;
  return seq;
}

Status LsmEngine::Mutate(uint8_t kind, uint64_t key, ByteSpan value, uint64_t* seq_out) {
  RETURN_IF_ERROR(CheckAlive());
  const uint64_t seq = next_seq_++;
  wal_.Add(kind, key, value, seq);
  ApplyToMemtable(key, kind == kWalPut ? std::make_optional(Bytes(value.begin(), value.end()))
                                       : std::nullopt);
  *seq_out = seq;
  if (wal_.pending_records() >= options_.wal_group_ops) {
    RETURN_IF_ERROR(SyncWal());
  }
  return MaybeFlush();
}

void LsmEngine::ApplyToMemtable(uint64_t key, std::optional<Bytes> value) {
  const size_t incoming = EntryBytes(key, value);
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    memtable_bytes_ -= EntryBytes(key, it->second);
    it->second = std::move(value);
  } else {
    memtable_.emplace(key, std::move(value));
  }
  memtable_bytes_ += incoming;
}

Status LsmEngine::Sync() {
  RETURN_IF_ERROR(CheckAlive());
  return SyncWal();
}

Status LsmEngine::SyncWal() {
  if (wal_.Empty()) {
    return Status::Ok();
  }
  const uint64_t need = wal_.PendingBlocks();
  if (need > deps_.zns->zone_lbas()) {
    return Internal("WAL group larger than a zone: memtable budget misconfigured");
  }
  ASSIGN_OR_RETURN(uint64_t remaining, media_->Remaining(wal_.zone()));
  if (remaining < need) {
    RETURN_IF_ERROR(RotateWalZone());
  }
  const bool held = AcquireForegroundCredit();
  Status synced = wal_.Sync();
  if (held) {
    ReleaseCredits(1);
  }
  RETURN_IF_ERROR(synced);
  last_acked_seq_ = next_seq_ - 1;
  return Status::Ok();
}

Status LsmEngine::RotateWalZone() {
  // The old zones still hold unflushed acknowledged records, so rotation
  // APPENDS a zone to the manifest's list — and the manifest must commit
  // before the first byte lands in the new zone (manifest-before-use).
  ASSIGN_OR_RETURN(uint32_t fresh, AllocZone());
  VersionState next = state_;
  next.wal_zones.push_back(fresh);
  next.next_seq = next_seq_;
  const bool held = AcquireForegroundCredit();
  Status persisted = manifest_.Persist(next);
  if (held) {
    ReleaseCredits(1);
  }
  if (!persisted.ok()) {
    free_zones_.push_back(fresh);
    return persisted;
  }
  state_ = std::move(next);
  wal_.set_zone(fresh);
  ++stats_.wal_rotations;
  return Status::Ok();
}

Status LsmEngine::MaybeFlush() {
  if (memtable_bytes_ < options_.memtable_budget_bytes) {
    return Status::Ok();
  }
  if (LevelTableCount(0) >= options_.l0_stall_limit) {
    // Write stall: foreground pays for compaction until L0 drains. The
    // urgent flag lets compaction make progress even with the credit gate
    // drained by foreground traffic.
    ++stats_.flush_stalls;
    in_stall_drain_ = true;
    while (LevelTableCount(0) >= options_.l0_compaction_trigger) {
      Result<bool> progress = CompactStep();
      if (!progress.ok()) {
        in_stall_drain_ = false;
        return progress.status();
      }
      if (!*progress) {
        break;
      }
    }
    in_stall_drain_ = false;
  }
  return FlushLocked();
}

Status LsmEngine::Flush() {
  RETURN_IF_ERROR(CheckAlive());
  return FlushLocked();
}

Status LsmEngine::FlushLocked() {
  if (memtable_.empty()) {
    return Status::Ok();
  }
  obs::ScopedSpan span(deps_.tracer, deps_.engine, obs::Subsystem::kStore, "lsm.flush");

  std::vector<LsmEntry> entries;
  entries.reserve(memtable_.size());
  for (const auto& [key, value] : memtable_) {
    entries.emplace_back(key, value);
  }
  ASSIGN_OR_RETURN(BuiltTable table,
                   BuildTable(state_.next_table_id, 0, std::span<const LsmEntry>(entries)));

  // Stream the image into data zones, one bounded append command at a time.
  const uint32_t total_blocks = static_cast<uint32_t>(table.image.size() / kSsBlockBytes);
  std::vector<TableExtent> extents;
  uint32_t at = 0;
  while (at < total_blocks) {
    const bool held = AcquireForegroundCredit();
    Result<uint32_t> wrote =
        AppendImageSlice(table.image, at, kAppendBatchBlocks, &extents);
    if (held) {
      ReleaseCredits(1);
    }
    RETURN_IF_ERROR(wrote.status());
    at += *wrote;
  }
  table.meta.extents = std::move(extents);

  // Commit point: one manifest append adds the table, bumps the flushed
  // watermark, and swaps in a fresh WAL zone.
  ASSIGN_OR_RETURN(uint32_t fresh_wal, AllocZone());
  VersionState next = state_;
  next.levels[0].push_back(table.meta);
  next.next_table_id = state_.next_table_id + 1;
  next.last_flushed_seq = next_seq_ - 1;
  next.next_seq = next_seq_;
  next.wal_zones = {fresh_wal};
  const bool held = AcquireForegroundCredit();
  Status persisted = manifest_.Persist(next);
  if (held) {
    ReleaseCredits(1);
  }
  if (!persisted.ok()) {
    free_zones_.push_back(fresh_wal);
    return persisted;
  }
  std::vector<uint32_t> retired_wal = std::move(state_.wal_zones);
  state_ = std::move(next);
  indexes_[table.meta.id] = std::move(table.index);
  AddTableZoneRefs(table.meta);
  wal_.set_zone(fresh_wal);
  wal_.DiscardPending();  // every record is now covered by the table
  memtable_.clear();
  memtable_bytes_ = 0;
  last_acked_seq_ = state_.last_flushed_seq;
  ++stats_.flushes;
  stats_.flush_bytes += table.image.size();

  // Retire the covered WAL zones (recovery resets them if we die first).
  for (uint32_t z : retired_wal) {
    RETURN_IF_ERROR(media_->Reset(z));
    auto it =
        std::lower_bound(free_zones_.begin(), free_zones_.end(), z, std::greater<uint32_t>());
    free_zones_.insert(it, z);
  }
  ReleaseDeadZones();
  return Status::Ok();
}

// -- Reads ------------------------------------------------------------------

Result<std::optional<Bytes>> LsmEngine::Get(uint64_t key) {
  RETURN_IF_ERROR(CheckAlive());
  ++stats_.gets;

  if (auto it = memtable_.find(key); it != memtable_.end()) {
    if (it->second.has_value()) {
      ++stats_.gets_found;
      return std::make_optional(*it->second);
    }
    return std::optional<Bytes>{};  // tombstone
  }

  // Probe one table; outer nullopt = keep searching older data.
  auto probe = [this, key](const TableMeta& meta)
      -> Result<std::optional<std::optional<Bytes>>> {
    if (key < meta.min_key || key > meta.max_key) {
      return std::optional<std::optional<Bytes>>{};
    }
    const TableIndex& index = indexes_.at(meta.id);
    if (!BloomMayContain(index.bloom, key)) {
      ++stats_.bloom_skips;
      return std::optional<std::optional<Bytes>>{};
    }
    ++stats_.table_probes;
    const bool held = AcquireForegroundCredit();
    auto found = TableGet(media_.get(), meta, index, key, &stats_.get_blocks_read);
    if (held) {
      ReleaseCredits(1);
    }
    return found;
  };

  // L0: overlapping tables, newest (last-flushed) first.
  const auto& l0 = state_.levels[0];
  for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
    ASSIGN_OR_RETURN(auto found, probe(*it));
    if (found.has_value()) {
      if (found->has_value()) {
        ++stats_.gets_found;
        return std::make_optional(std::move(**found));
      }
      return std::optional<Bytes>{};  // tombstone
    }
  }

  // L1+: disjoint sorted runs, binary search for the covering table.
  for (size_t n = 1; n < state_.levels.size(); ++n) {
    const auto& level = state_.levels[n];
    auto it = std::upper_bound(
        level.begin(), level.end(), key,
        [](uint64_t k, const TableMeta& t) { return k < t.min_key; });
    if (it == level.begin()) {
      continue;
    }
    --it;
    if (key > it->max_key) {
      continue;
    }
    ASSIGN_OR_RETURN(auto found, probe(*it));
    if (found.has_value()) {
      if (found->has_value()) {
        ++stats_.gets_found;
        return std::make_optional(std::move(**found));
      }
      return std::optional<Bytes>{};
    }
  }
  return std::optional<Bytes>{};
}

Result<std::vector<std::pair<uint64_t, Bytes>>> LsmEngine::Scan(uint64_t lo, uint64_t hi,
                                                                size_t limit) {
  RETURN_IF_ERROR(CheckAlive());
  ++stats_.scans;
  if (lo > hi) {
    return InvalidArgument("scan range is inverted");
  }

  // Overlay from oldest to newest so newer entries win; then filter live
  // entries in range.
  std::map<uint64_t, std::optional<Bytes>> merged;
  auto overlay_table = [this, lo, hi, &merged](const TableMeta& meta) -> Status {
    if (meta.max_key < lo || meta.min_key > hi) {
      return Status::Ok();
    }
    const bool held = AcquireForegroundCredit();
    auto entries = ReadTableEntries(media_.get(), meta);
    if (held) {
      ReleaseCredits(1);
    }
    RETURN_IF_ERROR(entries.status());
    for (auto& [key, value] : *entries) {
      if (key >= lo && key <= hi) {
        merged[key] = std::move(value);
      }
    }
    return Status::Ok();
  };

  for (size_t n = state_.levels.size(); n-- > 1;) {
    for (const TableMeta& meta : state_.levels[n]) {
      RETURN_IF_ERROR(overlay_table(meta));
    }
  }
  for (const TableMeta& meta : state_.levels[0]) {  // oldest-first
    RETURN_IF_ERROR(overlay_table(meta));
  }
  for (auto it = memtable_.lower_bound(lo); it != memtable_.end() && it->first <= hi; ++it) {
    merged[it->first] = it->second;
  }

  std::vector<std::pair<uint64_t, Bytes>> out;
  for (auto& [key, value] : merged) {
    if (out.size() >= limit) {
      break;
    }
    if (value.has_value()) {
      out.emplace_back(key, std::move(*value));
    }
  }
  stats_.scan_entries += out.size();
  return out;
}

// -- Zone allocation --------------------------------------------------------

Result<uint32_t> LsmEngine::AllocZone() {
  if (free_zones_.empty()) {
    return ResourceExhausted("no free zones: namespace too small for the working set");
  }
  const uint32_t zone = free_zones_.back();
  free_zones_.pop_back();
  return zone;
}

Result<uint32_t> LsmEngine::EnsureOpenDataZone() {
  if (open_data_zone_ != kNoZone) {
    ASSIGN_OR_RETURN(uint64_t remaining, media_->Remaining(open_data_zone_));
    if (remaining > 0) {
      return open_data_zone_;
    }
    open_data_zone_ = kNoZone;  // full; refcounts decide when it resets
  }
  ASSIGN_OR_RETURN(uint32_t zone, AllocZone());
  zone_live_tables_.try_emplace(zone, 0);
  open_data_zone_ = zone;
  return zone;
}

Result<uint32_t> LsmEngine::AppendImageSlice(const Bytes& image, uint32_t first_block,
                                             uint32_t max_blocks,
                                             std::vector<TableExtent>* extents) {
  const uint32_t total = static_cast<uint32_t>(image.size() / kSsBlockBytes);
  CHECK_LT(first_block, total);
  ASSIGN_OR_RETURN(uint32_t zone, EnsureOpenDataZone());
  ASSIGN_OR_RETURN(uint64_t remaining, media_->Remaining(zone));
  const uint32_t take = std::min({max_blocks, total - first_block,
                                  static_cast<uint32_t>(remaining)});
  const ByteSpan slice(image.data() + static_cast<size_t>(first_block) * kSsBlockBytes,
                       static_cast<size_t>(take) * kSsBlockBytes);
  ASSIGN_OR_RETURN(uint64_t slba, media_->Append(zone, slice));
  if (!extents->empty() && extents->back().zone == zone &&
      extents->back().slba + extents->back().blocks == slba) {
    extents->back().blocks += take;
  } else {
    extents->push_back(TableExtent{zone, slba, take});
  }
  return take;
}

void LsmEngine::AddTableZoneRefs(const TableMeta& meta) {
  for (const TableExtent& extent : meta.extents) {
    ++zone_live_tables_[extent.zone];
  }
}

void LsmEngine::DropTableZoneRefs(const TableMeta& meta) {
  for (const TableExtent& extent : meta.extents) {
    auto it = zone_live_tables_.find(extent.zone);
    CHECK(it != zone_live_tables_.end()) << "dropping refs on an untracked zone";
    CHECK_GT(it->second, 0u);
    --it->second;
  }
}

void LsmEngine::ReleaseDeadZones() {
  for (auto it = zone_live_tables_.begin(); it != zone_live_tables_.end();) {
    if (it->second != 0 || it->first == open_data_zone_) {
      ++it;
      continue;
    }
    const uint32_t zone = it->first;
    it = zone_live_tables_.erase(it);
    if (media_->Reset(zone).ok()) {
      auto at = std::lower_bound(free_zones_.begin(), free_zones_.end(), zone,
                                 std::greater<uint32_t>());
      free_zones_.insert(at, zone);
    }
  }
}

// -- Compaction -------------------------------------------------------------

uint64_t LsmEngine::LevelBudget(uint32_t level) const {
  CHECK_GE(level, 1u);
  uint64_t budget = options_.level1_bytes;
  for (uint32_t n = 1; n < level; ++n) {
    budget *= options_.level_fanout;
  }
  return budget;
}

uint32_t LsmEngine::LevelTableCount(uint32_t level) const {
  return level < state_.levels.size() ? static_cast<uint32_t>(state_.levels[level].size()) : 0;
}

uint64_t LsmEngine::LevelBytes(uint32_t level) const {
  if (level >= state_.levels.size()) {
    return 0;
  }
  uint64_t bytes = 0;
  for (const TableMeta& meta : state_.levels[level]) {
    bytes += meta.DataBytes();
  }
  return bytes;
}

bool LsmEngine::CompactionPending() const {
  if (job_.has_value()) {
    return true;
  }
  CompactionJob ignored;
  return PickCompaction(&ignored);
}

bool LsmEngine::PickCompaction(CompactionJob* job) const {
  // Highest pressure score >= 1 wins; the bottom level never compacts.
  double best_score = 0.0;
  uint32_t best_level = 0;
  bool found = false;
  if (state_.levels[0].size() >= options_.l0_compaction_trigger) {
    best_score = static_cast<double>(state_.levels[0].size()) /
                 static_cast<double>(options_.l0_compaction_trigger);
    best_level = 0;
    found = true;
  }
  for (uint32_t n = 1; n + 1 < state_.levels.size(); ++n) {
    const double score =
        static_cast<double>(LevelBytes(n)) / static_cast<double>(LevelBudget(n));
    if (score >= 1.0 && score > best_score) {
      best_score = score;
      best_level = n;
      found = true;
    }
  }
  if (!found) {
    return false;
  }

  job->src_level = best_level;
  uint64_t range_min = ~0ull;
  uint64_t range_max = 0;
  if (best_level == 0) {
    job->inputs_src = state_.levels[0];  // all of L0, stored oldest-first
  } else {
    // Round-robin cursor over the level, LevelDB style.
    const auto& level = state_.levels[best_level];
    auto it = std::lower_bound(
        level.begin(), level.end(), compact_cursor_[best_level],
        [](const TableMeta& t, uint64_t k) { return t.min_key < k; });
    if (it == level.end()) {
      it = level.begin();
    }
    job->inputs_src = {*it};
  }
  for (const TableMeta& meta : job->inputs_src) {
    range_min = std::min(range_min, meta.min_key);
    range_max = std::max(range_max, meta.max_key);
  }
  const uint32_t dst = best_level + 1;
  for (const TableMeta& meta : state_.levels[dst]) {
    if (meta.max_key >= range_min && meta.min_key <= range_max) {
      job->inputs_dst.push_back(meta);
    }
  }
  job->input_entries.resize(job->inputs_src.size() + job->inputs_dst.size());
  return true;
}

Result<bool> LsmEngine::CompactStep() {
  RETURN_IF_ERROR(CheckAlive());
  if (!job_.has_value()) {
    CompactionJob job;
    if (!PickCompaction(&job)) {
      return false;
    }
    job_ = std::move(job);
  }
  obs::ScopedSpan span(deps_.tracer, deps_.engine, obs::Subsystem::kStore, "lsm.compact_step");

  const uint32_t want = kCompactionIoBlocks;
  const uint32_t granted = AcquireCompactionCredits(want);
  uint32_t commands = granted;
  if (commands == 0) {
    if (!in_stall_drain_) {
      ++stats_.compaction_deferred;  // backpressure: foreground owns the gate
      return false;
    }
    // A write stall must drain L0 even against a saturated gate: pay the
    // stall penalty and push a reduced slice through.
    ++stats_.fg_credit_stalls;
    deps_.engine->Advance(kCreditStallPenalty);
    commands = std::max(1u, want / 4);
  }

  Status step = Status::Ok();
  CompactionJob& job = *job_;
  const size_t total_inputs = job.inputs_src.size() + job.inputs_dst.size();
  if (job.read_table < total_inputs) {
    step = CompactReadSlice(commands);
  } else if (!job.merged) {
    step = CompactMerge();
  } else if (job.write_table < job.outputs.size()) {
    step = CompactWriteSlice(commands);
  }
  if (step.ok() && job.merged && job.write_table >= job.outputs.size()) {
    step = CompactFinish();
  }
  ReleaseCredits(granted);
  RETURN_IF_ERROR(step);
  ++stats_.compaction_steps;
  return true;
}

Status LsmEngine::CompactAll() {
  RETURN_IF_ERROR(CheckAlive());
  in_stall_drain_ = true;  // quiesce must progress regardless of the gate
  while (true) {
    Result<bool> progress = CompactStep();
    if (!progress.ok()) {
      in_stall_drain_ = false;
      return progress.status();
    }
    if (!*progress) {
      break;
    }
  }
  in_stall_drain_ = false;
  return Status::Ok();
}

Status LsmEngine::CompactReadSlice(uint32_t commands) {
  CompactionJob& job = *job_;
  const size_t total_inputs = job.inputs_src.size() + job.inputs_dst.size();
  while (commands > 0 && job.read_table < total_inputs) {
    const TableMeta& meta = job.read_table < job.inputs_src.size()
                                ? job.inputs_src[job.read_table]
                                : job.inputs_dst[job.read_table - job.inputs_src.size()];
    const uint32_t take =
        std::min(kAppendBatchBlocks, meta.data_blocks - job.read_block);
    ASSIGN_OR_RETURN(Bytes blocks,
                     ReadTableBlocks(media_.get(), meta, job.read_block, take));
    ASSIGN_OR_RETURN(std::vector<LsmEntry> entries,
                     ParseBlockEntries(ByteSpan(blocks.data(), blocks.size())));
    auto& sink = job.input_entries[job.read_table];
    sink.insert(sink.end(), std::make_move_iterator(entries.begin()),
                std::make_move_iterator(entries.end()));
    stats_.compaction_read_bytes += static_cast<uint64_t>(take) * kSsBlockBytes;
    job.bytes_in += static_cast<uint64_t>(take) * kSsBlockBytes;
    job.read_block += take;
    if (job.read_block >= meta.data_blocks) {
      ++job.read_table;
      job.read_block = 0;
    }
    --commands;
  }
  return Status::Ok();
}

Status LsmEngine::CompactMerge() {
  CompactionJob& job = *job_;
  const uint32_t dst = job.src_level + 1;

  // Overlay older under newer: destination tables first, then source tables
  // in stored order (L0 is stored oldest-first, so the newest lands last).
  std::map<uint64_t, std::optional<Bytes>> merged;
  uint64_t entries_in = 0;
  for (size_t i = job.inputs_src.size(); i < job.input_entries.size(); ++i) {
    for (auto& [key, value] : job.input_entries[i]) {
      ++entries_in;
      merged[key] = std::move(value);
    }
  }
  for (size_t i = 0; i < job.inputs_src.size(); ++i) {
    for (auto& [key, value] : job.input_entries[i]) {
      ++entries_in;
      merged[key] = std::move(value);
    }
  }
  job.input_entries.clear();

  // Tombstones drop once nothing deeper could still hold the key.
  bool drop_tombstones = dst + 1 >= state_.levels.size();
  if (!drop_tombstones && !merged.empty()) {
    const uint64_t lo = merged.begin()->first;
    const uint64_t hi = merged.rbegin()->first;
    drop_tombstones = true;
    for (size_t n = dst + 1; n < state_.levels.size() && drop_tombstones; ++n) {
      for (const TableMeta& meta : state_.levels[n]) {
        if (meta.max_key >= lo && meta.min_key <= hi) {
          drop_tombstones = false;
          break;
        }
      }
    }
  }

  // Chunk survivors into target-size output tables.
  std::vector<LsmEntry> chunk;
  uint64_t chunk_bytes = 0;
  uint64_t entries_out = 0;
  auto emit_chunk = [this, &job, &chunk, &chunk_bytes, dst]() -> Status {
    if (chunk.empty()) {
      return Status::Ok();
    }
    ASSIGN_OR_RETURN(BuiltTable table,
                     BuildTable(state_.next_table_id++, dst,
                                std::span<const LsmEntry>(chunk)));
    job.outputs.push_back(std::move(table));
    chunk.clear();
    chunk_bytes = 0;
    return Status::Ok();
  };
  for (auto& [key, value] : merged) {
    if (!value.has_value() && drop_tombstones) {
      continue;
    }
    chunk_bytes += EntryBytes(key, value);
    chunk.emplace_back(key, std::move(value));
    ++entries_out;
    if (chunk_bytes >= options_.target_table_bytes) {
      RETURN_IF_ERROR(emit_chunk());
    }
  }
  RETURN_IF_ERROR(emit_chunk());
  job.output_extents.resize(job.outputs.size());
  stats_.compaction_drop_entries += entries_in - entries_out;

  ChargeMergeCost(job.bytes_in);
  job.merged = true;
  return Status::Ok();
}

void LsmEngine::ChargeMergeCost(uint64_t bytes) {
  if (options_.fpga_offload && deps_.fpga_sched != nullptr && deps_.fabric != nullptr) {
    auto placement = deps_.fpga_sched->Acquire(MergeBitstream());
    if (placement.ok()) {
      const uint64_t cycles =
          static_cast<uint64_t>(static_cast<double>(bytes) * kMergeCyclesPerByte);
      auto ran = deps_.fabric->Execute(placement->region, cycles);
      (void)deps_.fpga_sched->Release(placement->region);
      if (ran.ok()) {
        ++stats_.fpga_merges;
        return;
      }
    }
  }
  ++stats_.host_merges;
  deps_.engine->Advance(
      static_cast<sim::Duration>(static_cast<double>(bytes) * kHostMergeNsPerByte));
}

Status LsmEngine::CompactWriteSlice(uint32_t commands) {
  CompactionJob& job = *job_;
  while (commands > 0 && job.write_table < job.outputs.size()) {
    BuiltTable& out = job.outputs[job.write_table];
    const uint32_t total_blocks = static_cast<uint32_t>(out.image.size() / kSsBlockBytes);
    ASSIGN_OR_RETURN(uint32_t wrote,
                     AppendImageSlice(out.image, job.write_block, kAppendBatchBlocks,
                                      &job.output_extents[job.write_table]));
    stats_.compaction_write_bytes += static_cast<uint64_t>(wrote) * kSsBlockBytes;
    job.write_block += wrote;
    if (job.write_block >= total_blocks) {
      out.meta.extents = std::move(job.output_extents[job.write_table]);
      ++job.write_table;
      job.write_block = 0;
    }
    --commands;
  }
  return Status::Ok();
}

Status LsmEngine::CompactFinish() {
  CompactionJob& job = *job_;
  const uint32_t dst = job.src_level + 1;

  VersionState next = state_;
  auto remove_ids = [](std::vector<TableMeta>& level, const std::vector<TableMeta>& inputs) {
    for (const TableMeta& input : inputs) {
      std::erase_if(level, [&input](const TableMeta& t) { return t.id == input.id; });
    }
  };
  remove_ids(next.levels[job.src_level], job.inputs_src);
  remove_ids(next.levels[dst], job.inputs_dst);
  for (const BuiltTable& out : job.outputs) {
    next.levels[dst].push_back(out.meta);
  }
  std::sort(next.levels[dst].begin(), next.levels[dst].end(),
            [](const TableMeta& a, const TableMeta& b) { return a.min_key < b.min_key; });
  next.next_table_id = state_.next_table_id;
  next.next_seq = next_seq_;

  const bool held = AcquireForegroundCredit();
  Status persisted = manifest_.Persist(next);
  if (held) {
    ReleaseCredits(1);
  }
  RETURN_IF_ERROR(persisted);

  state_ = std::move(next);
  for (const TableMeta& input : job.inputs_src) {
    DropTableZoneRefs(input);
    indexes_.erase(input.id);
  }
  for (const TableMeta& input : job.inputs_dst) {
    DropTableZoneRefs(input);
    indexes_.erase(input.id);
  }
  uint64_t src_max = 0;
  for (const TableMeta& input : job.inputs_src) {
    src_max = std::max(src_max, input.max_key);
  }
  for (BuiltTable& out : job.outputs) {
    AddTableZoneRefs(out.meta);
    indexes_[out.meta.id] = std::move(out.index);
  }
  if (job.src_level >= 1) {
    // Advance the cursor past the compacted range (wraps via PickCompaction).
    compact_cursor_[job.src_level] = src_max == ~0ull ? 0 : src_max + 1;
  }
  job_.reset();
  ReleaseDeadZones();
  ++stats_.compactions;
  return Status::Ok();
}

// -- Credits ----------------------------------------------------------------

bool LsmEngine::AcquireForegroundCredit() {
  if (deps_.nvme_credits == nullptr) {
    return false;
  }
  if (deps_.nvme_credits->TryAcquire()) {
    return true;
  }
  ++stats_.fg_credit_stalls;
  deps_.engine->Advance(kCreditStallPenalty);
  return false;
}

uint32_t LsmEngine::AcquireCompactionCredits(uint32_t want) {
  if (deps_.nvme_credits == nullptr) {
    return want;  // ungated: full slice, nothing to release (capped below)
  }
  const uint32_t reserve = in_stall_drain_ ? 0 : kCompactionCreditReserve;
  uint32_t granted = 0;
  while (granted < want && deps_.nvme_credits->available() > reserve &&
         deps_.nvme_credits->TryAcquire()) {
    ++granted;
  }
  return granted;
}

void LsmEngine::ReleaseCredits(uint32_t count) {
  if (deps_.nvme_credits == nullptr) {
    return;
  }
  for (uint32_t i = 0; i < count; ++i) {
    deps_.nvme_credits->Release();
  }
}

}  // namespace hyperion::storage
