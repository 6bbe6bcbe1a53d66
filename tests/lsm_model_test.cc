// Model-checking tests for the production LSM engine (PR 6).
//
// Part 1 — property test: a seeded random stream of Put/Get/Delete/Scan
// runs against the engine and a std::map reference model simultaneously, at
// several memtable budgets and L0 shapes, with compaction pumped throughout
// and a clean-reopen check at the end. Any divergence (lost write, resurrected
// tombstone, wrong scan merge) fails with the op number in hand.
//
// Part 2 — determinism oracle: four independent LSM nodes (each with a
// private cost engine, its own namespace, and a scheduled mid-run power cut)
// execute chunk-by-chunk through the sharded parallel harness. The full
// observable outcome — op digests, stats, recovery info, cross-shard
// progress messages — must be bit-identical across shard layouts {1, 2, 4}.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/nvme/controller.h"
#include "src/nvme/zns.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/parallel.h"
#include "src/storage/lsm_engine.h"
#include "src/storage/sstable.h"
#include "src/storage/zns_media.h"

namespace hyperion::storage {
namespace {

constexpr uint64_t kZoneLbas = 128;  // 512 KiB zones
constexpr uint32_t kZones = 48;

// One full stack on a private engine: controller, zoned namespace, deps.
struct Rig {
  Rig() {
    nsid = controller.AddNamespace(kZones * kZoneLbas);
    auto created = nvme::ZonedNamespace::Create(&controller, nsid, kZoneLbas);
    CHECK_OK(created.status());
    zns.emplace(std::move(created).value());
  }

  LsmDeps Deps() {
    return LsmDeps{.engine = &engine, .zns = &*zns, .injector = injector ? &*injector : nullptr};
  }

  sim::Engine engine;
  nvme::Controller controller{&engine};
  uint32_t nsid = 0;
  std::optional<nvme::ZonedNamespace> zns;
  std::optional<sim::FaultInjector> injector;
};

Bytes RandomValue(Rng& rng, size_t max_len) {
  Bytes value(rng.UniformRange(1, max_len));
  for (auto& b : value) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return value;
}

uint64_t Fold(uint64_t digest, uint64_t x) { return (digest ^ x) * 0x100000001b3ULL; }

uint64_t FoldBytes(uint64_t digest, const Bytes& bytes) {
  digest = Fold(digest, bytes.size());
  for (uint8_t b : bytes) {
    digest = Fold(digest, b);
  }
  return digest;
}

// -- SSTable block-range bounds ---------------------------------------------

TEST(SstableBoundsTest, WrappedBlockRangeIsOutOfRange) {
  // first + count wraps in uint32_t: a sparse-index block number of
  // UINT32_MAX from a corrupt footer must fail the bounds check itself.
  Rig rig;
  ZnsMedia media(&*rig.zns);
  std::vector<LsmEntry> entries;
  for (uint64_t key = 0; key < 64; ++key) {
    entries.emplace_back(key, Bytes(200, static_cast<uint8_t>(key)));
  }
  auto built = BuildTable(/*id=*/1, /*level=*/0, entries);
  ASSERT_TRUE(built.ok());
  TableMeta meta = built->meta;
  auto slba = media.Append(0, ByteSpan(built->image.data(), built->image.size()));
  ASSERT_TRUE(slba.ok());
  meta.extents.push_back(TableExtent{0, *slba, meta.TotalBlocks()});
  ASSERT_TRUE(ReadTableBlocks(&media, meta, 0, meta.TotalBlocks()).ok());
  for (const auto& [first, count] : std::vector<std::pair<uint32_t, uint32_t>>{
           {UINT32_MAX, 2}, {1, UINT32_MAX}, {meta.TotalBlocks(), 1}}) {
    EXPECT_EQ(ReadTableBlocks(&media, meta, first, count).status().code(),
              StatusCode::kOutOfRange)
        << "first=" << first << " count=" << count;
  }
}

// -- Part 1: randomized ops vs std::map reference ---------------------------

void CheckAgainstModel(LsmEngine& lsm, const std::map<uint64_t, Bytes>& model,
                       uint64_t key_space) {
  for (uint64_t key = 0; key < key_space; ++key) {
    auto got = lsm.Get(key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = model.find(key);
    if (want == model.end()) {
      EXPECT_FALSE(got->has_value()) << "phantom key " << key;
    } else {
      ASSERT_TRUE(got->has_value()) << "lost key " << key;
      EXPECT_EQ(**got, want->second) << "wrong value for key " << key;
    }
  }
  auto scanned = lsm.Scan(0, key_space);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ(scanned->size(), model.size());
  auto want = model.begin();
  for (const auto& [key, value] : *scanned) {
    EXPECT_EQ(key, want->first);
    EXPECT_EQ(value, want->second);
    ++want;
  }
}

void RunModelCheck(uint64_t seed, const LsmEngineOptions& options, int ops,
                   uint64_t key_space) {
  Rig rig;
  auto formatted = LsmEngine::Format(rig.Deps(), options);
  ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
  std::unique_ptr<LsmEngine> lsm = std::move(formatted).value();

  std::map<uint64_t, Bytes> model;
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const uint64_t roll = rng.Uniform(100);
    const uint64_t key = rng.Uniform(key_space);
    if (roll < 45) {
      Bytes value = RandomValue(rng, 80);
      auto seq = lsm->Put(key, ByteSpan(value.data(), value.size()));
      ASSERT_TRUE(seq.ok()) << "op " << i << ": " << seq.status().ToString();
      model[key] = std::move(value);
    } else if (roll < 65) {
      auto seq = lsm->Delete(key);
      ASSERT_TRUE(seq.ok()) << "op " << i << ": " << seq.status().ToString();
      model.erase(key);
    } else if (roll < 90) {
      auto got = lsm->Get(key);
      ASSERT_TRUE(got.ok()) << "op " << i << ": " << got.status().ToString();
      auto want = model.find(key);
      if (want == model.end()) {
        EXPECT_FALSE(got->has_value()) << "op " << i << " phantom key " << key;
      } else {
        ASSERT_TRUE(got->has_value()) << "op " << i << " lost key " << key;
        EXPECT_EQ(**got, want->second) << "op " << i << " wrong value, key " << key;
      }
    } else {
      const uint64_t hi = std::min(key + rng.Uniform(64), key_space);
      auto scanned = lsm->Scan(key, hi);
      ASSERT_TRUE(scanned.ok()) << "op " << i << ": " << scanned.status().ToString();
      auto it = model.lower_bound(key);
      size_t n = 0;
      for (; it != model.end() && it->first <= hi; ++it, ++n) {
        ASSERT_LT(n, scanned->size()) << "op " << i << " scan missing keys";
        EXPECT_EQ((*scanned)[n].first, it->first) << "op " << i;
        EXPECT_EQ((*scanned)[n].second, it->second) << "op " << i;
      }
      EXPECT_EQ(n, scanned->size()) << "op " << i << " scan has extra keys";
    }
    if (i % 4 == 0) {
      auto stepped = lsm->CompactStep();
      ASSERT_TRUE(stepped.ok()) << "op " << i << ": " << stepped.status().ToString();
    }
  }

  CheckAgainstModel(*lsm, model, key_space);
  ASSERT_TRUE(lsm->CompactAll().ok());
  CheckAgainstModel(*lsm, model, key_space);

  // Clean shutdown via explicit sync, then recover and compare again: the
  // WAL replay path must reconstruct the same state.
  ASSERT_TRUE(lsm->Sync().ok());
  lsm.reset();
  auto reopened = LsmEngine::Open(rig.Deps(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  lsm = std::move(reopened).value();
  EXPECT_TRUE(lsm->recovery().recovered);
  EXPECT_EQ(lsm->recovery().wal_torn_groups, 0u);
  CheckAgainstModel(*lsm, model, key_space);
}

TEST(LsmModelTest, TinyMemtableManyFlushes) {
  LsmEngineOptions options;
  options.memtable_budget_bytes = 4 * 1024;
  options.l0_compaction_trigger = 2;
  options.l0_stall_limit = 6;
  options.wal_group_ops = 1;
  RunModelCheck(0xA11CE, options, 2500, 600);
}

TEST(LsmModelTest, MidMemtableGroupCommit) {
  LsmEngineOptions options;
  options.memtable_budget_bytes = 16 * 1024;
  options.l0_compaction_trigger = 4;
  options.wal_group_ops = 4;
  RunModelCheck(0xB0B, options, 2500, 600);
}

TEST(LsmModelTest, LargeMemtableDeepGroups) {
  LsmEngineOptions options;
  options.memtable_budget_bytes = 64 * 1024;
  options.l0_compaction_trigger = 3;
  options.wal_group_ops = 8;
  options.target_table_bytes = 32 * 1024;  // many small outputs per compaction
  RunModelCheck(0xCAFE, options, 2500, 400);
}

TEST(LsmModelTest, HotKeysExerciseTombstoneChurn) {
  LsmEngineOptions options;
  options.memtable_budget_bytes = 2 * 1024;
  options.l0_compaction_trigger = 2;
  options.wal_group_ops = 2;
  RunModelCheck(0xD00D, options, 3000, 48);  // tiny key space: heavy overwrite
}

// -- Part 2: determinism oracle across shard layouts ------------------------

struct NodeResult {
  uint64_t digest = 0;
  uint32_t reopens = 0;
  bool failed = false;
  LsmEngineStats stats;
  WalStats wal;
  ManifestStats manifest;
  ZnsMediaStats media;
  RecoveryInfo recovery;
  uint64_t last_acked = 0;

  bool operator==(const NodeResult&) const = default;
};

// One logical LSM node: private cost engine, private namespace, scripted
// workload with a mid-run power cut and in-place reopen. Everything it
// observes folds into `digest`.
class LsmNode {
 public:
  explicit LsmNode(uint32_t id) : node_id_(id), rng_(0xC0FFEE00 + id) {
    rig_.injector.emplace(
        &rig_.engine,
        sim::FaultPlan().AtQuery(sim::FaultSite::kStoragePowerCut, 60 + id * 7),
        0x5eed00 + id);
    auto formatted = LsmEngine::Format(rig_.Deps(), Options());
    if (!formatted.ok()) {
      result_.failed = true;
      return;
    }
    lsm_ = std::move(formatted).value();
  }

  static LsmEngineOptions Options() {
    LsmEngineOptions options;
    options.memtable_budget_bytes = 2 * 1024;
    options.l0_compaction_trigger = 2;
    options.l0_stall_limit = 6;
    options.wal_group_ops = 4;
    options.target_table_bytes = 16 * 1024;
    return options;
  }

  void RunChunk(int ops) {
    for (int i = 0; i < ops && !result_.failed; ++i) {
      if (lsm_ == nullptr || lsm_->dead()) {
        Reopen();
        if (result_.failed) {
          return;
        }
      }
      const uint64_t roll = rng_.Uniform(100);
      const uint64_t key = rng_.Uniform(4096);
      if (roll < 45) {
        Bytes value = RandomValue(rng_, 100);
        Track(lsm_->Put(key, ByteSpan(value.data(), value.size())));
      } else if (roll < 60) {
        Track(lsm_->Delete(key));
      } else if (roll < 85) {
        auto got = lsm_->Get(key);
        if (got.ok()) {
          digest_ = Fold(digest_, got->has_value() ? 1 : 0);
          if (got->has_value()) {
            digest_ = FoldBytes(digest_, **got);
          }
        } else {
          NoteFailure(got.status());
        }
      } else if (roll < 95) {
        auto stepped = lsm_->CompactStep();
        if (stepped.ok()) {
          digest_ = Fold(digest_, *stepped ? 2 : 3);
        } else {
          NoteFailure(stepped.status());
        }
      } else {
        auto scanned = lsm_->Scan(key, key + 64, 32);
        if (scanned.ok()) {
          digest_ = Fold(digest_, scanned->size());
          for (const auto& [k, v] : *scanned) {
            digest_ = Fold(digest_, k);
            digest_ = FoldBytes(digest_, v);
          }
        } else {
          NoteFailure(scanned.status());
        }
      }
    }
  }

  void Finalize() {
    if (result_.failed) {
      return;
    }
    if (lsm_ == nullptr || lsm_->dead()) {
      Reopen();
    }
    if (result_.failed) {
      return;
    }
    if (Status all = lsm_->CompactAll(); !all.ok()) {
      NoteFailure(all);
    }
    auto scanned = lsm_->Scan(0, ~0ull);
    if (!scanned.ok()) {
      NoteFailure(scanned.status());
    } else {
      digest_ = Fold(digest_, scanned->size());
      for (const auto& [k, v] : *scanned) {
        digest_ = Fold(digest_, k);
        digest_ = FoldBytes(digest_, v);
      }
    }
    result_.digest = digest_;
    result_.stats = lsm_->stats();
    result_.wal = lsm_->wal_stats();
    result_.manifest = lsm_->manifest_stats();
    result_.media = lsm_->media()->stats();
    result_.recovery = lsm_->recovery();
    result_.last_acked = lsm_->last_acked_seq();
  }

  uint64_t digest() const { return digest_; }
  const NodeResult& result() const { return result_; }

 private:
  void Track(const Result<uint64_t>& seq) {
    if (seq.ok()) {
      digest_ = Fold(digest_, *seq);
    } else {
      NoteFailure(seq.status());
    }
  }

  void NoteFailure(const Status& status) {
    if (status.code() == StatusCode::kUnavailable) {
      digest_ = Fold(digest_, 0xDEAD);  // the crash itself is part of the record
    } else {
      result_.failed = true;
    }
  }

  void Reopen() {
    ++result_.reopens;
    lsm_.reset();
    auto reopened = LsmEngine::Open(rig_.Deps(), Options());
    if (!reopened.ok()) {
      result_.failed = true;
      return;
    }
    lsm_ = std::move(reopened).value();
    const RecoveryInfo& rec = lsm_->recovery();
    digest_ = Fold(digest_, rec.manifest_version);
    digest_ = Fold(digest_, rec.tables_loaded);
    digest_ = Fold(digest_, rec.orphan_zones_reset);
    digest_ = Fold(digest_, rec.wal_records_replayed);
    digest_ = Fold(digest_, rec.wal_torn_groups);
    digest_ = Fold(digest_, rec.recovered_seq);
  }

  uint32_t node_id_;
  Rng rng_;
  Rig rig_;
  std::unique_ptr<LsmEngine> lsm_;
  uint64_t digest_ = 0;
  NodeResult result_;
};

struct LayoutOutcome {
  std::vector<NodeResult> nodes;
  // Per-node chunk digests as received by the shard-0 collector via
  // cross-shard messages.
  std::vector<std::vector<uint64_t>> collected;

  bool operator==(const LayoutOutcome&) const = default;
};

LayoutOutcome RunLayout(uint32_t num_shards) {
  constexpr uint32_t kNodes = 4;
  constexpr int kChunks = 12;
  constexpr int kOpsPerChunk = 80;

  sim::ParallelEngine pe(num_shards);

  std::vector<std::unique_ptr<LsmNode>> nodes;
  std::vector<uint32_t> sources;
  LayoutOutcome outcome;
  outcome.collected.resize(kNodes);
  for (uint32_t n = 0; n < kNodes; ++n) {
    nodes.push_back(std::make_unique<LsmNode>(n));
    sources.push_back(pe.AddSource(n % num_shards));
  }

  // Chunk steps chain on each node's home shard; after every chunk the node
  // posts its running digest to the shard-0 collector (a real cross-shard
  // message whenever the node is homed elsewhere).
  std::function<void(uint32_t, int)> schedule_chunk = [&](uint32_t n, int chunk) {
    pe.shard(n % num_shards).ScheduleAfter(sim::kMillisecond, [&, n, chunk] {
      nodes[n]->RunChunk(kOpsPerChunk);
      const uint64_t digest = nodes[n]->digest();
      pe.Post(sources[n], 0, pe.shard(n % num_shards).Now() + sim::kMillisecond,
              [&outcome, n, digest] { outcome.collected[n].push_back(digest); });
      if (chunk + 1 < kChunks) {
        schedule_chunk(n, chunk + 1);
      }
    });
  };
  for (uint32_t n = 0; n < kNodes; ++n) {
    schedule_chunk(n, 0);
  }
  pe.Run();

  for (uint32_t n = 0; n < kNodes; ++n) {
    nodes[n]->Finalize();
    outcome.nodes.push_back(nodes[n]->result());
  }
  return outcome;
}

TEST(LsmDeterminismTest, BitIdenticalAcrossShardLayouts) {
  const LayoutOutcome baseline = RunLayout(1);
  for (const NodeResult& node : baseline.nodes) {
    ASSERT_FALSE(node.failed);
    EXPECT_EQ(node.reopens, 1u);  // exactly the injected power cut
    EXPECT_GT(node.stats.compactions, 0u);
  }
  for (uint32_t num_shards : {2u, 4u}) {
    const LayoutOutcome outcome = RunLayout(num_shards);
    for (uint32_t n = 0; n < baseline.nodes.size(); ++n) {
      EXPECT_EQ(outcome.nodes[n].digest, baseline.nodes[n].digest)
          << "node " << n << " diverged at shards=" << num_shards;
      EXPECT_TRUE(outcome.nodes[n] == baseline.nodes[n])
          << "node " << n << " stats/recovery diverged at shards=" << num_shards;
    }
    EXPECT_TRUE(outcome.collected == baseline.collected)
        << "cross-shard progress log diverged at shards=" << num_shards;
  }
}

}  // namespace
}  // namespace hyperion::storage
