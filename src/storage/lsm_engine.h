// Production LSM engine on ZNS flash (the tentpole of this PR).
//
// Durability pipeline: mutations hit the in-DRAM memtable and a group-commit
// WAL (Zone Append, src/storage/wal.h). A full memtable flushes to an
// immutable SSTable (src/storage/sstable.h) streamed into data zones, then a
// manifest append (src/storage/manifest.h) commits the new version and
// retires the covered WAL zones. Reads go memtable -> L0 newest-first ->
// leveled runs, pruned by per-table bloom filters and a sparse block index.
//
// Background leveled compaction is an incremental state machine: each
// CompactStep() acquires NVMe credits from the shared PR 5 CreditGate (so it
// competes with foreground traffic and defers under pressure), moves a
// bounded slice of I/O, and runs its merge on the FPGA through the PR 3 slot
// scheduler — the paper's near-storage offload — falling back to a host-cost
// merge when no region is available.
//
// Crash model: an injected kStoragePowerCut tears the in-flight append and
// kills the ZnsMedia session; the engine turns kUnavailable from then on.
// Open() over the surviving ZonedNamespace recovers: best manifest version,
// table footers, orphan-zone resets, WAL replay to the torn tail. The
// contract the recovery matrix pins: no acknowledged write is ever lost, and
// recovered state equals a reference replay of the surviving prefix.

#ifndef HYPERION_SRC_STORAGE_LSM_ENGINE_H_
#define HYPERION_SRC_STORAGE_LSM_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/fpga/fabric.h"
#include "src/fpga/scheduler.h"
#include "src/nvme/zns.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/flow.h"
#include "src/storage/manifest.h"
#include "src/storage/sstable.h"
#include "src/storage/wal.h"
#include "src/storage/zns_media.h"

namespace hyperion::storage {

// Wiring: everything outlives the engine. `engine` + `zns` are required;
// the rest degrade gracefully when absent (no offload, no credit gating,
// no faults, no tracing).
struct LsmDeps {
  sim::Engine* engine = nullptr;
  nvme::ZonedNamespace* zns = nullptr;
  fpga::SlotScheduler* fpga_sched = nullptr;  // compaction-merge offload
  fpga::Fabric* fabric = nullptr;             // required iff fpga_sched set
  sim::CreditGate* nvme_credits = nullptr;    // shared SQ credits (PR 5)
  sim::FaultInjector* injector = nullptr;     // power-cut injection (PR 1)
  obs::Tracer* tracer = nullptr;
};

struct LsmEngineOptions {
  uint64_t memtable_budget_bytes = 256 * 1024;
  uint32_t wal_group_ops = 1;          // records per group commit (1 = sync every op)
  uint32_t l0_compaction_trigger = 4;  // L0 tables that make compaction pending
  uint32_t l0_stall_limit = 12;        // L0 tables that stall foreground flushes
  uint32_t level_fanout = 4;           // budget(n+1) = fanout * budget(n)
  uint64_t level1_bytes = 4 * 1024 * 1024;
  uint64_t target_table_bytes = 1024 * 1024;  // compaction output table size
  bool fpga_offload = true;
};

inline constexpr size_t kLsmMaxValueLen = 1024;

struct LsmEngineStats {
  // Foreground.
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t gets = 0;
  uint64_t gets_found = 0;
  uint64_t scans = 0;
  uint64_t scan_entries = 0;
  uint64_t bloom_skips = 0;       // table probes short-circuited by the bloom
  uint64_t table_probes = 0;      // tables consulted by Get after pruning
  uint64_t get_blocks_read = 0;   // data blocks fetched by the Get path
  uint64_t fg_credit_stalls = 0;  // foreground ops that hit an empty gate

  // Flush / WAL.
  uint64_t flushes = 0;
  uint64_t flush_stalls = 0;      // Puts that waited on L0 compaction
  uint64_t flush_bytes = 0;       // SSTable image bytes written by flushes
  uint64_t wal_rotations = 0;

  // Compaction.
  uint64_t compactions = 0;         // jobs completed
  uint64_t compaction_steps = 0;    // CompactStep calls that made progress
  uint64_t compaction_deferred = 0; // steps that yielded to foreground credits
  uint64_t compaction_read_bytes = 0;
  uint64_t compaction_write_bytes = 0;
  uint64_t compaction_drop_entries = 0;  // shadowed entries + dropped tombstones
  uint64_t fpga_merges = 0;
  uint64_t host_merges = 0;

  bool operator==(const LsmEngineStats&) const = default;
};

// What Open() learned while bringing the engine back.
struct RecoveryInfo {
  bool recovered = false;          // true when an existing manifest was adopted
  uint64_t manifest_version = 0;
  uint32_t tables_loaded = 0;
  uint32_t orphan_zones_reset = 0; // written zones no manifest version references
  uint64_t wal_records_replayed = 0;
  uint64_t wal_torn_groups = 0;
  uint64_t recovered_seq = 0;      // highest durable seq after replay
  sim::Duration recovery_ns = 0;

  bool operator==(const RecoveryInfo&) const = default;
};

class LsmEngine {
 public:
  // Formats the namespace: resets every zone, writes manifest version 1
  // (empty levels, one WAL zone), and returns a running engine. Requires
  // zns zones >= kMinZones (2 manifest + 1 WAL + 1 data).
  static Result<std::unique_ptr<LsmEngine>> Format(const LsmDeps& deps,
                                                   const LsmEngineOptions& options = {});

  // Recovers from the durable state in deps.zns (a fresh power session):
  // adopts the best manifest version, loads table footers, resets orphan
  // zones, replays the WAL up to its torn tail. kNotFound when the device
  // was never formatted.
  static Result<std::unique_ptr<LsmEngine>> Open(const LsmDeps& deps,
                                                 const LsmEngineOptions& options = {});

  static constexpr uint32_t kMinZones = 4;

  LsmEngine(const LsmEngine&) = delete;
  LsmEngine& operator=(const LsmEngine&) = delete;

  // -- Foreground API --------------------------------------------------------
  // A mutation is ACKNOWLEDGED once its covering Sync() (group commit or an
  // explicit Sync call) or flush returned OK — last_acked_seq() tracks it.

  // Returns the mutation's sequence number.
  Result<uint64_t> Put(uint64_t key, ByteSpan value);
  Result<uint64_t> Delete(uint64_t key);
  // Forces the pending WAL group to media (the explicit ack barrier).
  Status Sync();

  Result<std::optional<Bytes>> Get(uint64_t key);
  // All live entries with lo <= key <= hi, in key order.
  Result<std::vector<std::pair<uint64_t, Bytes>>> Scan(uint64_t lo, uint64_t hi,
                                                       size_t limit = SIZE_MAX);

  // Flushes the memtable to an L0 SSTable now (no-op when empty).
  Status Flush();

  // -- Background compaction -------------------------------------------------

  // True when some level is over budget (work for CompactStep).
  bool CompactionPending() const;
  // Runs one bounded, credit-gated slice of the active (or newly picked)
  // compaction job. Returns true when it made progress, false when there was
  // nothing to do or credits forced a deferral.
  Result<bool> CompactStep();
  // Drives CompactStep until no work remains (tests / quiesce).
  Status CompactAll();

  // -- Introspection ---------------------------------------------------------

  uint64_t last_assigned_seq() const { return next_seq_ - 1; }
  uint64_t last_acked_seq() const { return last_acked_seq_; }
  // True once the media session died under the engine (power cut): every
  // API call fails kUnavailable and only a fresh Open() can continue.
  bool dead() const { return dead_ || (media_ != nullptr && media_->powered_off()); }

  size_t MemtableBytes() const { return memtable_bytes_; }
  uint32_t LevelTableCount(uint32_t level) const;
  uint64_t LevelBytes(uint32_t level) const;
  uint32_t FreeZones() const { return static_cast<uint32_t>(free_zones_.size()); }

  const LsmEngineStats& stats() const { return stats_; }
  const RecoveryInfo& recovery() const { return recovery_; }
  const VersionState& version_state() const { return state_; }
  ZnsMedia* media() { return media_.get(); }
  const WalStats& wal_stats() const { return wal_.stats(); }
  const ManifestStats& manifest_stats() const { return manifest_.stats(); }

 private:
  LsmEngine(const LsmDeps& deps, const LsmEngineOptions& options);

  // One in-flight leveled compaction, advanced a slice per CompactStep.
  struct CompactionJob {
    uint32_t src_level = 0;
    std::vector<TableMeta> inputs_src;
    std::vector<TableMeta> inputs_dst;
    // Read phase cursors.
    size_t read_table = 0;      // index into inputs_src + inputs_dst
    uint32_t read_block = 0;    // next data block of that table
    std::vector<std::vector<LsmEntry>> input_entries;  // parallel to inputs
    bool merged = false;
    // Write phase.
    std::vector<BuiltTable> outputs;
    size_t write_table = 0;
    uint32_t write_block = 0;
    std::vector<std::vector<TableExtent>> output_extents;  // parallel to outputs
    uint64_t bytes_in = 0;
  };

  Status DoFormat();
  Status DoRecover();

  Status Mutate(uint8_t kind, uint64_t key, ByteSpan value, uint64_t* seq_out);
  void ApplyToMemtable(uint64_t key, std::optional<Bytes> value);
  Status SyncWal();          // rotation-aware Wal::Sync
  Status RotateWalZone();    // manifest-before-use zone switch
  Status FlushLocked();      // memtable -> L0 table -> manifest -> WAL retire
  Status MaybeFlush();       // budget check + L0 stall control

  // Appends up to `max_blocks` of image[first_block..] with one zone-append
  // command, rotating the open data zone as needed. Returns blocks written
  // and records the extent.
  Result<uint32_t> AppendImageSlice(const Bytes& image, uint32_t first_block,
                                    uint32_t max_blocks, std::vector<TableExtent>* extents);
  Result<uint32_t> EnsureOpenDataZone();
  Result<uint32_t> AllocZone();
  void AddTableZoneRefs(const TableMeta& meta);
  void DropTableZoneRefs(const TableMeta& meta);
  void ReleaseDeadZones();

  // Compaction internals.
  bool PickCompaction(CompactionJob* job) const;
  uint64_t LevelBudget(uint32_t level) const;
  Status CompactReadSlice(uint32_t commands);
  Status CompactMerge();
  Status CompactWriteSlice(uint32_t commands);
  Status CompactFinish();
  void ChargeMergeCost(uint64_t bytes);  // FPGA offload or host fallback

  // Foreground credit policy: true = credit held (caller releases); false =
  // the gate was empty, the stall penalty was charged, and the op proceeds
  // (the SQ would drain in real time).
  bool AcquireForegroundCredit();
  // Background policy: take up to `want` credits, never dipping into the
  // reserve; 0 means defer. Caller must release `granted`.
  uint32_t AcquireCompactionCredits(uint32_t want);
  void ReleaseCredits(uint32_t count);

  Status CheckAlive() const;

  const LsmDeps deps_;
  const LsmEngineOptions options_;
  std::unique_ptr<ZnsMedia> media_;
  Wal wal_;
  Manifest manifest_;
  VersionState state_;

  // Memtable: nullopt value = tombstone.
  std::map<uint64_t, std::optional<Bytes>> memtable_;
  size_t memtable_bytes_ = 0;

  // Decoded footers for every live table, by table id.
  std::map<uint64_t, TableIndex> indexes_;

  // Zone accounting. Zones 0/1 are the manifest pair; the rest cycle
  // through free -> WAL-or-data -> free.
  std::vector<uint32_t> free_zones_;           // ascending; lowest allocated first
  std::map<uint32_t, uint32_t> zone_live_tables_;  // data zone -> live table refs
  static constexpr uint32_t kNoZone = ~0u;
  uint32_t open_data_zone_ = kNoZone;

  uint64_t next_seq_ = 1;
  uint64_t last_acked_seq_ = 0;
  bool dead_ = false;
  bool in_stall_drain_ = false;  // reentrancy guard: stall drain calls CompactStep

  std::optional<CompactionJob> job_;
  std::vector<uint64_t> compact_cursor_;  // per-level round-robin key cursor

  LsmEngineStats stats_;
  RecoveryInfo recovery_;
};

}  // namespace hyperion::storage

#endif  // HYPERION_SRC_STORAGE_LSM_ENGINE_H_
