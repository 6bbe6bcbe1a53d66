// Tests for the storage engines: B+ tree, hash index, Corfu log, KV facade
// and graph store.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/object_store.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/storage/bptree.h"
#include "src/storage/corfu.h"
#include "src/storage/graph.h"
#include "src/storage/hash_index.h"
#include "src/storage/kv.h"

namespace hyperion::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : ctrl_(&engine_) {
    const uint32_t nsid = ctrl_.AddNamespace(1u << 18);  // 1 GiB
    mem::ObjectStoreConfig config;
    config.dram_bytes = 64u << 20;
    config.hbm_bytes = 8u << 20;
    config.nvme_nsid = nsid;
    store_ = std::make_unique<mem::ObjectStore>(&engine_, &ctrl_, config);
  }

  Bytes Value(uint64_t key) {
    Bytes v;
    PutU64(v, key * 31 + 7);
    return v;
  }

  sim::Engine engine_;
  nvme::Controller ctrl_;
  std::unique_ptr<mem::ObjectStore> store_;
};

// -- B+ tree ----------------------------------------------------------------

TEST_F(StorageTest, BTreeInsertGet) {
  auto tree = BPlusTree::Create(store_.get(), 1);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 500; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  EXPECT_EQ(tree->EntryCount(), 500u);
  for (uint64_t k = 0; k < 500; ++k) {
    auto got = tree->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, Value(k));
  }
  EXPECT_FALSE(tree->Get(9999).ok());
}

TEST_F(StorageTest, BTreeOverwrite) {
  auto tree = BPlusTree::Create(store_.get(), 2);
  ASSERT_TRUE(tree.ok());
  Bytes v1 = {1};
  Bytes v2 = {2};
  ASSERT_TRUE(tree->Insert(5, ByteSpan(v1.data(), 1)).ok());
  ASSERT_TRUE(tree->Insert(5, ByteSpan(v2.data(), 1)).ok());
  EXPECT_EQ(tree->EntryCount(), 1u);
  EXPECT_EQ(*tree->Get(5), v2);
}

TEST_F(StorageTest, BTreeGrowsInHeight) {
  auto tree = BPlusTree::Create(store_.get(), 3);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Height(), 1u);
  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k * 17 % 4096, ByteSpan(v.data(), v.size())).ok());
  }
  EXPECT_GE(tree->Height(), 3u);
  // Every key still reachable after many splits.
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree->Get(k * 17 % 4096).ok());
  }
}

TEST_F(StorageTest, BTreeScanOrderedAndBounded) {
  auto tree = BPlusTree::Create(store_.get(), 4);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 300; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k * 2, ByteSpan(v.data(), v.size())).ok());  // even keys
  }
  auto rows = tree->Scan(100, 200);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 51u);  // 100..200 step 2
  for (size_t i = 0; i + 1 < rows->size(); ++i) {
    EXPECT_LT((*rows)[i].first, (*rows)[i + 1].first);
  }
  EXPECT_EQ(rows->front().first, 100u);
  EXPECT_EQ(rows->back().first, 200u);
}

TEST_F(StorageTest, BTreeDelete) {
  auto tree = BPlusTree::Create(store_.get(), 5);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  ASSERT_TRUE(tree->Delete(50).ok());
  EXPECT_FALSE(tree->Get(50).ok());
  EXPECT_EQ(tree->Delete(50).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->EntryCount(), 99u);
}

TEST_F(StorageTest, BTreeNodeReadsMatchHeight) {
  auto tree = BPlusTree::Create(store_.get(), 6);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  tree->ResetStats();
  ASSERT_TRUE(tree->Get(1234).ok());
  EXPECT_EQ(tree->NodeReads(), tree->Height());
}

TEST_F(StorageTest, BTreePropertyMatchesStdMap) {
  auto tree = BPlusTree::Create(store_.get(), 7);
  ASSERT_TRUE(tree.ok());
  std::map<uint64_t, Bytes> model;
  Rng rng(1234);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = rng.Uniform(800);
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0 && !model.empty()) {
      // Delete a key that may or may not exist.
      const bool existed = model.erase(key) > 0;
      Status st = tree->Delete(key);
      EXPECT_EQ(st.ok(), existed);
    } else {
      Bytes v;
      PutU64(v, rng.Next());
      model[key] = v;
      ASSERT_TRUE(tree->Insert(key, ByteSpan(v.data(), v.size())).ok());
    }
  }
  EXPECT_EQ(tree->EntryCount(), model.size());
  for (const auto& [key, value] : model) {
    auto got = tree->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

// Get as it ran when every node on the path was decoded: ParseBPlusNode per
// hop, and an inner node at depth Height() is DataLoss (a corrupt child id
// can point up the tree).
Result<Bytes> DecodedGet(mem::ObjectStore* store, const BPlusTree& tree, uint64_t key) {
  uint64_t node_id = tree.root_node_id();
  for (uint32_t depth = 1;; ++depth) {
    ASSIGN_OR_RETURN(Bytes raw, store->Read(BPlusNodeSegment(tree.tree_id(), node_id), 0,
                                            BPlusTree::kNodeBytes));
    ASSIGN_OR_RETURN(NodeView node, ParseBPlusNode(ByteSpan(raw.data(), raw.size())));
    if (node.is_leaf) {
      auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
      if (it == node.keys.end() || *it != key) {
        return NotFound("key not in tree");
      }
      const ByteSpan value = node.values[static_cast<size_t>(it - node.keys.begin())];
      return Bytes(value.begin(), value.end());
    }
    if (depth == tree.Height()) {
      return DataLoss("B+ tree walk deeper than the tree's height");
    }
    auto it = std::upper_bound(node.keys.begin(), node.keys.end(), key);
    node_id = node.children[static_cast<size_t>(it - node.keys.begin())];
  }
}

// The corrupt-node sweeps' inputs. 10 keys fit one leaf (the root); 60
// make a two-level tree whose root is an inner node. The root's stored
// image is cut short and byte-flipped in place, and `check(tree, probes,
// what)` runs once with each image stored.
template <typename Check>
void SweepCorruptRoots(mem::ObjectStore* store, uint64_t keys, Check check) {
  auto tree = BPlusTree::Create(store, 40 + keys);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < keys; ++k) {
    const Bytes v(k % 23, static_cast<uint8_t>(k + 1));  // lengths 0-22
    ASSERT_TRUE(tree->Insert(3 * k, ByteSpan(v.data(), v.size())).ok());
  }
  ASSERT_EQ(tree->Height(), keys == 10 ? 1u : 2u);
  const mem::SegmentId root = BPlusNodeSegment(tree->tree_id(), tree->root_node_id());
  const Bytes pristine = *store->Read(root, 0, BPlusTree::kNodeBytes);
  size_t used = pristine.size();
  while (used > 0 && pristine[used - 1] == 0) {
    --used;
  }
  Rng rng(keys);
  std::vector<uint64_t> probes = {0, 1, 3 * (keys - 1), 3 * keys, UINT64_MAX};
  for (int i = 0; i < 6; ++i) {
    probes.push_back(rng.Uniform(3 * keys));
  }
  auto run = [&](const Bytes& image, const std::string& what) {
    ASSERT_TRUE(store->Write(root, 0, ByteSpan(image.data(), image.size())).ok());
    check(*tree, probes, what);
  };
  // Every cut of the stored image, the rest zeroed (as WriteNode pads) or
  // set to 0xff (so lengths and counts read from it overrun).
  for (size_t cut = 0; cut <= used; ++cut) {
    for (const uint8_t fill : {0x00, 0xff}) {
      Bytes image = pristine;
      std::fill(image.begin() + static_cast<ptrdiff_t>(cut), image.end(), fill);
      run(image, "cut " + std::to_string(cut) + " fill " + std::to_string(fill));
    }
  }
  for (int flip = 0; flip < 2000; ++flip) {
    Bytes image = pristine;
    const size_t at = rng.Bernoulli(0.75) ? rng.Uniform(used) : rng.Uniform(image.size());
    image[at] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    run(image, "flip at " + std::to_string(at));
  }
  ASSERT_TRUE(store->Write(root, 0, ByteSpan(pristine.data(), pristine.size())).ok());
}

TEST_F(StorageTest, BTreeGetOnCorruptNodesMatchesDecodingThem) {
  for (const uint64_t keys : {10u, 60u}) {
    std::map<std::string, int> outcomes;
    int compared = 0;
    SweepCorruptRoots(store_.get(), keys,
                      [&](BPlusTree& tree, const std::vector<uint64_t>& probes,
                          const std::string& what) {
                        for (const uint64_t key : probes) {
                          const Result<Bytes> want = DecodedGet(store_.get(), tree, key);
                          ++compared;
                          const Result<Bytes> got = tree.Get(key);
                          ASSERT_EQ(got.ok(), want.ok()) << what << ", key " << key;
                          if (got.ok()) {
                            ASSERT_EQ(*got, *want) << what << ", key " << key;
                            ++outcomes["value"];
                          } else {
                            ASSERT_EQ(got.status().code(), want.status().code())
                                << what << ", key " << key;
                            ASSERT_EQ(got.status().message(), want.status().message())
                                << what << ", key " << key;
                            ++outcomes[std::string(got.status().message())];
                          }
                        }
                      });
    EXPECT_GT(compared, 20000) << keys;
    for (const char* outcome : {"value", "key not in tree", "truncated B+ node",
                                "implausible B+ node entry count"}) {
      EXPECT_GT(outcomes[outcome], 0) << keys << " keys: " << outcome;
    }
  }
}

// Every node's stored image, by node id from 1 up (ids are never reused).
std::vector<Bytes> ReadNodes(mem::ObjectStore* store, const BPlusTree& tree) {
  std::vector<Bytes> nodes;
  for (uint64_t id = 1;; ++id) {
    auto raw = store->Read(BPlusNodeSegment(tree.tree_id(), id), 0, BPlusTree::kNodeBytes);
    if (!raw.ok()) {
      return nodes;
    }
    nodes.push_back(std::move(*raw));
  }
}

TEST_F(StorageTest, BTreeWritesOnCorruptNodesMatchDecodingThem) {
  // Insert and Delete walk like Get. Where the decoding walk fails, each
  // answers its error and writes nothing. Where it reaches a leaf, Delete
  // finds what it found, and a Get after Insert reads back what Insert
  // wrote unless a split moved it: a corrupt leaf's keys can be out of
  // order or repeated, so the separator a split hands up may route the key
  // to another entry. Get then still reads what the decoding walk reads.
  const Bytes v(8, 0xab);
  for (const uint64_t keys : {10u, 60u}) {
    std::map<std::string, int> outcomes;
    SweepCorruptRoots(
        store_.get(), keys,
        [&](BPlusTree& tree, const std::vector<uint64_t>& probes, const std::string& what) {
          const std::vector<Bytes> before = ReadNodes(store_.get(), tree);
          for (const uint64_t key : probes) {
            const Result<Bytes> want = DecodedGet(store_.get(), tree, key);
            const bool walked = want.ok() || want.status().message() == "key not in tree";
            for (const bool insert : {true, false}) {
              const std::string where =
                  what + ", key " + std::to_string(key) + (insert ? ", insert" : ", delete");
              BPlusTree copy = tree;  // the op may change the in-memory counts
              const Status st =
                  insert ? copy.Insert(key, ByteSpan(v.data(), v.size())) : copy.Delete(key);
              if (!walked || (!insert && !want.ok())) {
                ASSERT_EQ(st.code(), want.status().code()) << where;
                ASSERT_EQ(st.message(), want.status().message()) << where;
                ASSERT_EQ(copy.EntryCount(), tree.EntryCount()) << where;
                ASSERT_EQ(ReadNodes(store_.get(), tree), before) << where;
                ++outcomes[std::string(st.message())];
                continue;
              }
              ASSERT_TRUE(st.ok()) << where << ": " << st.message();
              ++outcomes[insert ? "inserted" : "deleted"];
              if (insert) {
                const Result<Bytes> got = copy.Get(key);
                const Result<Bytes> decoded = DecodedGet(store_.get(), copy, key);
                ASSERT_EQ(got.ok(), decoded.ok()) << where;
                if (got.ok()) {
                  ASSERT_EQ(*got, *decoded) << where;
                }
                const bool split = store_->Read(BPlusNodeSegment(tree.tree_id(), before.size() + 1),
                                                0, BPlusTree::kNodeBytes)
                                       .ok();
                if (!split) {
                  ASSERT_TRUE(got.ok()) << where << ": " << got.status().message();
                  ASSERT_EQ(*got, v) << where;
                }
                ++outcomes[got.ok() && *got == v ? "read back" : "moved by a split"];
              }
              // Put the tree back as it was: every node's bytes, and no
              // node a split added.
              for (uint64_t id = 1; id <= before.size(); ++id) {
                const Bytes& node = before[id - 1];
                ASSERT_TRUE(store_->Write(BPlusNodeSegment(tree.tree_id(), id), 0,
                                          ByteSpan(node.data(), node.size()))
                                .ok());
              }
              for (uint64_t id = before.size() + 1;
                   store_->Delete(BPlusNodeSegment(tree.tree_id(), id)).ok(); ++id) {
              }
            }
          }
        });
    for (const char* outcome : {"inserted", "read back", "deleted", "key not in tree",
                                "truncated B+ node", "implausible B+ node entry count"}) {
      EXPECT_GT(outcomes[outcome], 0) << keys << " keys: " << outcome;
    }
  }
}

// Rewrites the u64 at `offset` of node `node_id`'s stored image.
void OverwriteNodeU64(mem::ObjectStore* store, const BPlusTree& tree, uint64_t node_id,
                      size_t offset, uint64_t value) {
  Bytes bytes;
  PutU64(bytes, value);
  ASSERT_TRUE(store->Write(BPlusNodeSegment(tree.tree_id(), node_id), offset,
                           ByteSpan(bytes.data(), bytes.size()))
                  .ok());
}

// Node image layout: is_leaf u8, count u32, next_leaf u64, keys, children.
constexpr size_t kNextLeafOffset = 1 + 4;
size_t ChildOffset(const NodeView& node, size_t i) {
  return kNextLeafOffset + 8 + 8 * node.keys.size() + 8 * i;
}

NodeView ReadView(mem::ObjectStore* store, const BPlusTree& tree, uint64_t node_id) {
  const Bytes raw =
      *store->Read(BPlusNodeSegment(tree.tree_id(), node_id), 0, BPlusTree::kNodeBytes);
  return *ParseBPlusNode(ByteSpan(raw.data(), raw.size()));
}

TEST_F(StorageTest, BTreeChildIdCycleIsDataLoss) {
  auto tree = BPlusTree::Create(store_.get(), 50);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 60; ++k) {
    const Bytes v(8, static_cast<uint8_t>(k));
    ASSERT_TRUE(tree->Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  ASSERT_EQ(tree->Height(), 2u);
  // Every child id of the root names the root itself.
  const uint64_t root = tree->root_node_id();
  const NodeView view = ReadView(store_.get(), *tree, root);
  ASSERT_FALSE(view.is_leaf);
  for (size_t i = 0; i < view.children.size(); ++i) {
    OverwriteNodeU64(store_.get(), *tree, root, ChildOffset(view, i), root);
  }
  const mem::SegmentId root_segment = BPlusNodeSegment(tree->tree_id(), root);
  const Bytes corrupt = *store_->Read(root_segment, 0, BPlusTree::kNodeBytes);

  const auto start = std::chrono::steady_clock::now();
  tree->ResetStats();
  const Bytes v(8, 1);
  for (const Status& st : {tree->Get(7).status(), tree->Delete(7), tree->Scan(0, 100).status(),
                           tree->Insert(7, ByteSpan(v.data(), v.size()))}) {
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
    EXPECT_EQ(st.message(), "B+ tree walk deeper than the tree's height");
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  // Each walk read the root twice, then stopped; nothing was written.
  EXPECT_EQ(tree->NodeReads(), 8u);
  EXPECT_EQ(tree->EntryCount(), 60u);
  EXPECT_EQ(*store_->Read(root_segment, 0, BPlusTree::kNodeBytes), corrupt);
}

// A leaf image as the tree writes one: is_leaf, count, next_leaf, the keys,
// then each value behind its length, padded to the node size.
Bytes LeafImage(const std::vector<std::pair<uint64_t, Bytes>>& entries) {
  Bytes image;
  image.push_back(1);
  PutU32(image, static_cast<uint32_t>(entries.size()));
  PutU64(image, 0);
  for (const auto& entry : entries) {
    PutU64(image, entry.first);
  }
  for (const auto& entry : entries) {
    PutU32(image, static_cast<uint32_t>(entry.second.size()));
    PutBytes(image, ByteSpan(entry.second.data(), entry.second.size()));
  }
  image.resize(BPlusTree::kNodeBytes, 0);
  return image;
}

TEST_F(StorageTest, BTreeInsertThatOverflowsACorruptLeafIsDataLoss) {
  // A root leaf that parses but holds values longer than any Insert
  // writes. Adding a record overflows the node, as does either half of a
  // split: Insert refuses before it writes anything.
  std::vector<std::pair<uint64_t, Bytes>> split_leaf = {{10, Bytes(3939, 0xcd)}};
  for (uint64_t key = 11; key < 22; ++key) {
    split_leaf.emplace_back(key, Bytes());
  }
  const std::pair<std::vector<std::pair<uint64_t, Bytes>>, uint64_t> cases[] = {
      {{{5, Bytes(4071, 0xab)}}, 8},  // one entry filling the node exactly
      {split_leaf, BPlusTree::kMaxValueLen},  // the new record joins the big half
  };
  uint64_t tree_id = 52;
  for (const auto& [entries, value_len] : cases) {
    auto tree = BPlusTree::Create(store_.get(), tree_id++);
    ASSERT_TRUE(tree.ok());
    const Bytes image = LeafImage(entries);
    ASSERT_EQ(image.size(), BPlusTree::kNodeBytes);
    const mem::SegmentId root = BPlusNodeSegment(tree->tree_id(), tree->root_node_id());
    ASSERT_TRUE(store_->Write(root, 0, ByteSpan(image.data(), image.size())).ok());
    ASSERT_EQ(*tree->Get(entries[0].first), entries[0].second);

    const Bytes value(value_len, 1);
    const Status st = tree->Insert(1, ByteSpan(value.data(), value.size()));
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
    EXPECT_EQ(st.message(), "B+ tree leaf overflows its node");
    EXPECT_EQ(tree->EntryCount(), 0u);
    EXPECT_EQ(*store_->Read(root, 0, BPlusTree::kNodeBytes), image);
    EXPECT_FALSE(store_->Read(BPlusNodeSegment(tree->tree_id(), tree->root_node_id() + 1), 0,
                              BPlusTree::kNodeBytes)
                     .ok());
    // Shrinking the big value makes room again.
    ASSERT_TRUE(tree->Insert(entries[0].first, ByteSpan(value.data(), value.size())).ok());
    EXPECT_EQ(*tree->Get(entries[0].first), value);
  }
}

TEST_F(StorageTest, BTreeLeafChainCycleIsDataLoss) {
  auto tree = BPlusTree::Create(store_.get(), 51);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 60; ++k) {
    const Bytes v(8, static_cast<uint8_t>(k));
    ASSERT_TRUE(tree->Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  const uint64_t root = tree->root_node_id();
  const uint64_t first_leaf = ReadView(store_.get(), *tree, root).children[0];
  const auto start = std::chrono::steady_clock::now();
  // The first leaf links to itself: the scan would collect its keys forever.
  OverwriteNodeU64(store_.get(), *tree, first_leaf, kNextLeafOffset, first_leaf);
  auto looped = tree->Scan(0, UINT64_MAX);
  EXPECT_EQ(looped.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(looped.status().message(), "B+ tree leaf chain longer than the tree");
  // It links to the root: an inner node has no values to collect.
  OverwriteNodeU64(store_.get(), *tree, first_leaf, kNextLeafOffset, root);
  auto inner = tree->Scan(0, UINT64_MAX);
  EXPECT_EQ(inner.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(inner.status().message(), "B+ tree leaf chain reaches an inner node");
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  // A scan that ends inside the first leaf never follows the bad link.
  auto head = tree->Scan(0, 2);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->size(), 3u);
}

TEST(BTreeTrafficTest, StorageTrafficIsPinned) {
  // A seeded mix that grows each tree to height 3, then overwrites,
  // deletes, gets and scans, on a durable (flash) tree and on a
  // performance-critical (HBM) tree. The digest folds each op's result, the
  // sim clock, the node reads, the store's translations, the NVMe reads and
  // writes and every node's bytes, so it moves if a walk reads, writes or
  // creates a node in a different order or with different arguments.
  Bytes trace;
  for (const mem::SegmentHints hints :
       {mem::SegmentHints{.durable = true}, mem::SegmentHints{.performance_critical = true}}) {
    sim::Engine engine;
    nvme::Controller ctrl(&engine);
    mem::ObjectStoreConfig config;
    config.dram_bytes = 16u << 20;
    config.hbm_bytes = 16u << 20;
    config.nvme_nsid = ctrl.AddNamespace(1u << 16);
    mem::ObjectStore store(&engine, &ctrl, config);
    auto tree = BPlusTree::Create(&store, 77, hints);
    ASSERT_TRUE(tree.ok());
    Rng rng(2027);
    std::vector<uint64_t> inserted;
    for (int op = 0; op < 6000; ++op) {
      const uint64_t pick = rng.Uniform(10);
      const uint64_t key = pick < 6 || inserted.empty() ? rng.Uniform(1u << 20)
                                                        : inserted[rng.Uniform(inserted.size())];
      if (op < 2500 || pick < 6 || pick == 9) {  // insert, or overwrite
        const Bytes value(1 + rng.Uniform(BPlusTree::kMaxValueLen / 8),
                          static_cast<uint8_t>(rng.Next()));
        ASSERT_TRUE(tree->Insert(key, ByteSpan(value.data(), value.size())).ok());
        inserted.push_back(key);
      } else if (pick == 6) {
        PutU32(trace, static_cast<uint32_t>(tree->Delete(key).code()));
      } else if (pick == 7) {
        const Result<Bytes> got = tree->Get(key);
        PutU32(trace, static_cast<uint32_t>(got.status().code()));
        if (got.ok()) {
          PutBytes(trace, ByteSpan(got->data(), got->size()));
        }
      } else {
        auto rows = tree->Scan(key, key + (1u << 14));
        ASSERT_TRUE(rows.ok());
        PutU64(trace, rows->size());
        for (const auto& [k, value] : *rows) {
          PutU64(trace, k);
          PutBytes(trace, ByteSpan(value.data(), value.size()));
        }
      }
    }
    ASSERT_EQ(tree->Height(), 3u);
    PutU64(trace, tree->EntryCount());
    PutU64(trace, engine.Now());
    PutU64(trace, tree->NodeReads());
    PutU64(trace, store.counters().Get("translations"));
    PutU64(trace, ctrl.counters().Get("nvme_reads"));
    PutU64(trace, ctrl.counters().Get("nvme_writes"));
    for (const Bytes& node : ReadNodes(&store, *tree)) {
      PutBytes(trace, ByteSpan(node.data(), node.size()));
    }
  }
  // Recorded from the tree whose Insert decoded every node on its path.
  EXPECT_EQ(Fnv1a64(ByteSpan(trace.data(), trace.size())), 0xb3bca53f9c19820cull);
}

// -- Hash index -----------------------------------------------------------

TEST_F(StorageTest, HashIndexBasicOps) {
  auto index = HashIndex::Create(store_.get(), 1, 16);
  ASSERT_TRUE(index.ok());
  Bytes key = ToBytes("flow-1");
  Bytes value = ToBytes("backend-3");
  ASSERT_TRUE(index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size()))
                  .ok());
  EXPECT_EQ(*index->Get(ByteSpan(key.data(), key.size())), value);
  ASSERT_TRUE(index->Delete(ByteSpan(key.data(), key.size())).ok());
  EXPECT_FALSE(index->Get(ByteSpan(key.data(), key.size())).ok());
}

TEST_F(StorageTest, HashIndexOverflowChains) {
  // 1 bucket forces every key through the same chain.
  auto index = HashIndex::Create(store_.get(), 2, 1);
  ASSERT_TRUE(index.ok());
  for (uint64_t k = 0; k < 500; ++k) {
    Bytes key;
    PutU64(key, k);
    Bytes value = Value(k);
    ASSERT_TRUE(
        index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size())).ok())
        << k;
  }
  EXPECT_EQ(index->EntryCount(), 500u);
  for (uint64_t k = 0; k < 500; ++k) {
    Bytes key;
    PutU64(key, k);
    auto got = index->Get(ByteSpan(key.data(), key.size()));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, Value(k));
  }
}

TEST_F(StorageTest, HashIndexStatsTrackChainsAndOccupancy) {
  // 4 roots and fixed-size records: chain growth is fully predictable, so
  // the stats must track it exactly, not approximately.
  auto index = HashIndex::Create(store_.get(), 4, 4);
  ASSERT_TRUE(index.ok());
  HashIndexStats stats = index->Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.root_buckets, 4u);
  EXPECT_EQ(stats.overflow_buckets, 0u);
  EXPECT_EQ(stats.max_chain, 1u);
  EXPECT_EQ(stats.occupancy, 0.0);

  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes key;
    PutU64(key, k);
    Bytes value = Value(k);
    ASSERT_TRUE(
        index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size())).ok());
  }
  stats = index->Stats();
  EXPECT_EQ(stats.entries, 2000u);
  EXPECT_GT(stats.overflow_buckets, 0u);
  EXPECT_GT(stats.max_chain, 1u);
  // mean chain = total buckets / roots, and the max bounds the mean.
  EXPECT_DOUBLE_EQ(stats.mean_chain,
                   static_cast<double>(stats.root_buckets + stats.overflow_buckets) /
                       stats.root_buckets);
  EXPECT_LE(stats.mean_chain, static_cast<double>(stats.max_chain));
  EXPECT_GT(stats.occupancy, 0.0);
  EXPECT_LE(stats.occupancy, 1.0);

  // Deleting everything drains entries; chains may persist (no merge), but
  // occupancy must fall to zero payload.
  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes key;
    PutU64(key, k);
    ASSERT_TRUE(index->Delete(ByteSpan(key.data(), key.size())).ok());
  }
  stats = index->Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.occupancy, 0.0);
}

TEST_F(StorageTest, HashIndexMillionEntryScale) {
  // The XDP flow table sizing case: >=1M concurrent flows over a fixed
  // bucket directory. Fixed 16-byte records over 8192 4KiB roots sit right
  // at capacity, so overflow stays near zero and chains stay flat.
  auto index = HashIndex::Create(store_.get(), 5, 8192);
  ASSERT_TRUE(index.ok());
  const uint64_t kFlows = 1u << 20;
  for (uint64_t k = 0; k < kFlows; ++k) {
    Bytes key;
    PutU64(key, k * 0x9E3779B97F4A7C15ull);  // well-spread flow ids
    Bytes value = Value(k);
    ASSERT_TRUE(
        index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size())).ok())
        << k;
  }
  HashIndexStats stats = index->Stats();
  EXPECT_EQ(stats.entries, kFlows);
  EXPECT_EQ(stats.root_buckets, 8192u);
  EXPECT_LT(stats.max_chain, 4u);
  EXPECT_LT(stats.mean_chain, 1.1);
  EXPECT_GT(stats.occupancy, 0.5);
  // Spot-check reads across the whole range.
  for (uint64_t k = 0; k < kFlows; k += 65537) {
    Bytes key;
    PutU64(key, k * 0x9E3779B97F4A7C15ull);
    auto got = index->Get(ByteSpan(key.data(), key.size()));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, Value(k));
  }
  // Teardown of a stripe shrinks the count exactly.
  for (uint64_t k = 0; k < kFlows; k += 16) {
    Bytes key;
    PutU64(key, k * 0x9E3779B97F4A7C15ull);
    ASSERT_TRUE(index->Delete(ByteSpan(key.data(), key.size())).ok()) << k;
  }
  EXPECT_EQ(index->Stats().entries, kFlows - kFlows / 16);
}

TEST_F(StorageTest, HashIndexPropertyMatchesUnorderedMap) {
  auto index = HashIndex::Create(store_.get(), 6, 8);
  ASSERT_TRUE(index.ok());
  std::unordered_map<uint64_t, uint64_t> model;
  Rng rng(0xD1CE);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t k = rng.Uniform(512);  // small key space forces collisions
    Bytes key;
    PutU64(key, k);
    const uint32_t kind = static_cast<uint32_t>(rng.Uniform(10));
    if (kind < 6) {  // put (fresh, same-size overwrite, or resize overwrite)
      const uint64_t v = rng.Next();
      Bytes value;
      PutU64(value, v);
      if (kind == 5) {
        PutU64(value, v);  // 16-byte variant: in-place resize path
      }
      ASSERT_TRUE(
          index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size())).ok());
      model[k] = v;
    } else if (kind < 8) {  // delete
      const Status deleted = index->Delete(ByteSpan(key.data(), key.size()));
      EXPECT_EQ(deleted.ok(), model.erase(k) > 0) << "key " << k;
    } else {  // lookup
      auto got = index->Get(ByteSpan(key.data(), key.size()));
      auto expect = model.find(k);
      ASSERT_EQ(got.ok(), expect != model.end()) << "key " << k;
      if (got.ok()) {
        EXPECT_EQ(GetU64(ByteSpan(got->data(), got->size()), 0), expect->second);
      }
    }
  }
  EXPECT_EQ(index->EntryCount(), model.size());
  for (const auto& [k, v] : model) {
    Bytes key;
    PutU64(key, k);
    auto got = index->Get(ByteSpan(key.data(), key.size()));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(GetU64(ByteSpan(got->data(), got->size()), 0), v);
  }
}

TEST_F(StorageTest, HashIndexOverwrite) {
  auto index = HashIndex::Create(store_.get(), 3, 8);
  ASSERT_TRUE(index.ok());
  Bytes key = ToBytes("k");
  Bytes v1 = ToBytes("old");
  Bytes v2 = ToBytes("new");
  ASSERT_TRUE(index->Put(ByteSpan(key.data(), 1), ByteSpan(v1.data(), v1.size())).ok());
  ASSERT_TRUE(index->Put(ByteSpan(key.data(), 1), ByteSpan(v2.data(), v2.size())).ok());
  EXPECT_EQ(index->EntryCount(), 1u);
  EXPECT_EQ(*index->Get(ByteSpan(key.data(), 1)), v2);
}

TEST_F(StorageTest, HashIndexRePutFindsTheKeyPastARoomyBucket) {
  // One root bucket of 216-byte records holds 18; the 19th overflows.
  auto index = HashIndex::Create(store_.get(), 4, 1);
  ASSERT_TRUE(index.ok());
  const Bytes old_value(200, 1);
  const Bytes new_value(200, 2);
  auto key_of = [](uint64_t k) {
    Bytes key;
    PutU64(key, k);
    return key;
  };
  uint64_t keys = 0;
  while (index->Stats().overflow_buckets == 0) {
    const Bytes key = key_of(keys++);
    ASSERT_TRUE(index->Put(ByteSpan(key.data(), key.size()),
                           ByteSpan(old_value.data(), old_value.size()))
                    .ok());
  }
  // The root bucket gets room back; the last key lives past it.
  const Bytes first = key_of(0);
  const Bytes last = key_of(keys - 1);
  ASSERT_TRUE(index->Delete(ByteSpan(first.data(), first.size())).ok());
  const uint64_t entries = index->EntryCount();
  ASSERT_TRUE(
      index->Put(ByteSpan(last.data(), last.size()), ByteSpan(new_value.data(), new_value.size()))
          .ok());
  EXPECT_EQ(index->EntryCount(), entries);
  EXPECT_EQ(*index->Get(ByteSpan(last.data(), last.size())), new_value);
  ASSERT_TRUE(index->Delete(ByteSpan(last.data(), last.size())).ok());
  EXPECT_EQ(index->Get(ByteSpan(last.data(), last.size())).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(index->EntryCount(), entries - 1);
}

// -- Corfu log ------------------------------------------------------------

TEST_F(StorageTest, CorfuAppendRead) {
  CorfuLog log(store_.get(), 1);
  auto p0 = log.Append(ByteSpan(reinterpret_cast<const uint8_t*>("alpha"), 5));
  auto p1 = log.Append(ByteSpan(reinterpret_cast<const uint8_t*>("beta"), 4));
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(ToString(ByteSpan(log.Read(0)->data(), log.Read(0)->size())), "alpha");
  EXPECT_EQ(ToString(ByteSpan(log.Read(1)->data(), log.Read(1)->size())), "beta");
}

TEST_F(StorageTest, CorfuWriteOnceEnforced) {
  CorfuLog log(store_.get(), 2);
  const uint64_t pos = log.Reserve().value();
  Bytes data = ToBytes("x");
  ASSERT_TRUE(log.WriteAt(pos, ByteSpan(data.data(), 1)).ok());
  EXPECT_EQ(log.WriteAt(pos, ByteSpan(data.data(), 1)).code(), StatusCode::kAlreadyExists);
}

TEST_F(StorageTest, CorfuHolesAndFills) {
  CorfuLog log(store_.get(), 3);
  const uint64_t hole = log.Reserve().value();  // reserved, never written
  auto p1 = log.Append(ToBytes("after-hole"));
  ASSERT_TRUE(p1.ok());
  // The hole reads as NotFound until filled.
  EXPECT_EQ(log.Read(hole).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(log.Fill(hole).ok());
  EXPECT_EQ(log.Read(hole).status().code(), StatusCode::kDataLoss);
  // Fill is also write-once.
  EXPECT_EQ(log.Fill(hole).code(), StatusCode::kAlreadyExists);
  // A slow writer arriving after the fill loses.
  Bytes late = ToBytes("late");
  EXPECT_EQ(log.WriteAt(hole, ByteSpan(late.data(), late.size())).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(StorageTest, CorfuTrimReclaims) {
  CorfuLog log(store_.get(), 4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(log.Append(ToBytes("entry")).ok());
  }
  ASSERT_TRUE(log.Trim(5).ok());
  EXPECT_EQ(log.Read(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(log.Read(7).ok());
  EXPECT_EQ(log.TrimPoint(), 5u);
}

TEST_F(StorageTest, CorfuTrimOfTooManyPositionsIsRefused) {
  CorfuLog log(store_.get(), 30);
  ASSERT_TRUE(log.Fill(CorfuLog::kMaxPosition).ok());
  const auto start = std::chrono::steady_clock::now();
  const Status st = log.Trim(CorfuLog::kMaxPosition);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(log.TrimPoint(), 0u);
  // A trim of exactly the cap goes through.
  ASSERT_TRUE(log.Trim(CorfuLog::kMaxTrimPositions).ok());
  EXPECT_EQ(log.TrimPoint(), CorfuLog::kMaxTrimPositions);
}

TEST_F(StorageTest, CorfuStriping) {
  CorfuLog log(store_.get(), 5, /*stripe_units=*/4);
  EXPECT_EQ(log.UnitOf(0), 0u);
  EXPECT_EQ(log.UnitOf(5), 1u);
  EXPECT_EQ(log.UnitOf(7), 3u);
}

TEST_F(StorageTest, CorfuDetectsCorruption) {
  CorfuLog log(store_.get(), 6);
  auto pos = log.Append(ToBytes("precious"));
  ASSERT_TRUE(pos.ok());
  // Flip a byte behind the log's back.
  const mem::SegmentId seg(0xC0F0000000000006ull, *pos);
  auto raw = store_->Read(seg, 0, 6);
  ASSERT_TRUE(raw.ok());
  Bytes tampered = *raw;
  tampered[5] ^= 0xff;
  ASSERT_TRUE(store_->Write(seg, 0, ByteSpan(tampered.data(), tampered.size())).ok());
  EXPECT_EQ(log.Read(*pos).status().code(), StatusCode::kDataLoss);
}

// Regression: the sequencer must be durable. A log reopened over the same
// store used to restart its tail at 0 and re-issue handed-out positions,
// silently overwriting nothing (write-once saves the data) but breaking
// Reserve()'s uniqueness contract — every retry loop above it spun forever
// on kAlreadyExists.
TEST_F(StorageTest, CorfuSequencerSurvivesReopen) {
  constexpr uint64_t kLogId = 7;
  uint64_t reserved = 0;
  {
    CorfuLog log(store_.get(), kLogId);
    for (int i = 0; i < 5; ++i) {
      reserved = log.Reserve().value();
    }
    Bytes data = ToBytes("durable");
    ASSERT_TRUE(log.WriteAt(reserved, ByteSpan(data.data(), data.size())).ok());
  }
  CorfuLog reopened(store_.get(), kLogId);
  // The recovered tail may overestimate (chunked ceiling) but never hands
  // out a position at or below anything previously reserved.
  EXPECT_GT(reopened.Reserve().value(), reserved);
  // Write-once still holds across the reopen.
  Bytes late = ToBytes("late");
  EXPECT_EQ(reopened.WriteAt(reserved, ByteSpan(late.data(), late.size())).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ToString(ByteSpan(reopened.Read(reserved)->data(), reopened.Read(reserved)->size())),
            "durable");
}

// Trim must survive a reopen too (same meta segment as the ceiling).
TEST_F(StorageTest, CorfuTrimSurvivesReopen) {
  constexpr uint64_t kLogId = 8;
  {
    CorfuLog log(store_.get(), kLogId);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(log.Append(ToBytes("entry")).ok());
    }
    ASSERT_TRUE(log.Trim(6).ok());
  }
  CorfuLog reopened(store_.get(), kLogId);
  EXPECT_EQ(reopened.TrimPoint(), 6u);
  EXPECT_EQ(reopened.Read(3).status().code(), StatusCode::kOutOfRange);
}

// AdvanceTail (failover tail adoption) persists: a reopened log resumes
// past the adopted tail.
TEST_F(StorageTest, CorfuAdoptedTailSurvivesReopen) {
  constexpr uint64_t kLogId = 9;
  {
    CorfuLog log(store_.get(), kLogId);
    ASSERT_TRUE(log.AdvanceTail(500).ok());
    EXPECT_EQ(log.Tail(), 500u);
  }
  CorfuLog reopened(store_.get(), kLogId);
  EXPECT_GE(reopened.Tail(), 500u);
  EXPECT_GE(reopened.Reserve().value(), 500u);
}

// A replica accepts writes at positions sequenced elsewhere: WriteAt past
// the local tail advances it instead of rejecting.
TEST_F(StorageTest, CorfuRemoteSequencedWriteAdvancesTail) {
  CorfuLog log(store_.get(), 10);
  Bytes data = ToBytes("remote");
  ASSERT_TRUE(log.WriteAt(7, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(log.Tail(), 8u);
  EXPECT_EQ(log.Read(7).status().code(), StatusCode::kOk);
  EXPECT_EQ(log.Read(3).status().code(), StatusCode::kNotFound);
}

// A position whose tail (position + 1) or chunk-rounded ceiling would wrap
// past 2^64 is rejected: the tail stays put and appends keep going.
TEST_F(StorageTest, CorfuPositionsThatWouldWrapTheTailAreRejected) {
  CorfuLog log(store_.get(), 11);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(log.Append(ToBytes("entry")).ok());
  }
  EXPECT_EQ(log.Fill(UINT64_MAX).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(log.Tail(), 3u);
  const Bytes data = ToBytes("far");
  const uint64_t last_chunk = UINT64_MAX - CorfuLog::kReserveChunk + 1;  // 2^64 - 64
  EXPECT_EQ(log.WriteAt(last_chunk, ByteSpan(data.data(), data.size())).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(log.Tail(), 3u);
  auto next = log.Append(ToBytes("next"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
}

// Reserve and AdvanceTail fail rather than push the tail or the
// chunk-rounded ceiling past 2^64: a wrapped ceiling reopens the log at
// tail 0, where it re-issues positions already written.
TEST_F(StorageTest, CorfuSequencerAndAdoptedTailDoNotWrap) {
  constexpr uint64_t kLogId = 12;
  {
    CorfuLog log(store_.get(), kLogId);
    ASSERT_TRUE(log.Append(ToBytes("first")).ok());  // position 0
    ASSERT_TRUE(log.Fill(CorfuLog::kMaxPosition).ok());
    EXPECT_EQ(log.Reserve().status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(log.Tail(), CorfuLog::kMaxPosition + 1);
  }
  {
    CorfuLog reopened(store_.get(), kLogId);
    EXPECT_EQ(reopened.Tail(), CorfuLog::kMaxPosition + 1);
    EXPECT_EQ(reopened.Append(ToBytes("next")).status().code(), StatusCode::kOutOfRange);
  }
  CorfuLog log(store_.get(), kLogId + 1);
  ASSERT_TRUE(log.Append(ToBytes("first")).ok());
  EXPECT_EQ(log.AdvanceTail(UINT64_MAX).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(log.Tail(), 1u);
  auto next = log.Append(ToBytes("next"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 1u);
  ASSERT_TRUE(log.AdvanceTail(CorfuLog::kMaxPosition + 1).ok());
  EXPECT_EQ(log.Reserve().status().code(), StatusCode::kOutOfRange);
}

// -- KV facade ---------------------------------------------------------------

class KvParamTest : public StorageTest,
                    public ::testing::WithParamInterface<KvBackend> {};

TEST_P(KvParamTest, PutGetDeleteAcrossBackends) {
  auto kv = KvStore::Create(store_.get(), 40 + static_cast<uint64_t>(GetParam()), GetParam());
  ASSERT_TRUE(kv.ok());
  for (uint64_t k = 0; k < 200; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(kv->Put(k, ByteSpan(v.data(), v.size())).ok()) << k;
  }
  for (uint64_t k = 0; k < 200; ++k) {
    auto got = kv->Get(k);
    ASSERT_TRUE(got.ok()) << KvBackendName(GetParam()) << " key " << k;
    EXPECT_EQ(*got, Value(k));
  }
  ASSERT_TRUE(kv->Delete(100).ok());
  EXPECT_FALSE(kv->Get(100).ok());
  EXPECT_FALSE(kv->Get(100000).ok());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KvParamTest,
                         ::testing::Values(KvBackend::kBTree, KvBackend::kHash),
                         [](const auto& info) {
                           return std::string(KvBackendName(info.param));
                         });

TEST_P(KvParamTest, LargeValuesSpillToSegments) {
  auto kv = KvStore::Create(store_.get(), 60 + static_cast<uint64_t>(GetParam()), GetParam());
  ASSERT_TRUE(kv.ok());
  // 64 KiB value: far above every backend's inline cap.
  Bytes big(64 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(kv->Put(5, ByteSpan(big.data(), big.size())).ok());
  auto got = kv->Get(5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, big);
  // Overwrite with a small value: the spilled segment must be reclaimed.
  const size_t before = store_->SegmentCount();
  Bytes small = {1, 2, 3};
  ASSERT_TRUE(kv->Put(5, ByteSpan(small.data(), small.size())).ok());
  EXPECT_EQ(*kv->Get(5), small);
  EXPECT_LT(store_->SegmentCount(), before);
  // Delete of a spilled value reclaims too.
  ASSERT_TRUE(kv->Put(6, ByteSpan(big.data(), big.size())).ok());
  ASSERT_TRUE(kv->Delete(6).ok());
  EXPECT_FALSE(kv->Get(6).ok());
}

TEST_F(StorageTest, KvScanMaterializesSpilledValues) {
  auto kv = KvStore::Create(store_.get(), 70, KvBackend::kBTree);
  ASSERT_TRUE(kv.ok());
  Bytes big(8000, 0x3c);
  Bytes small = {9};
  ASSERT_TRUE(kv->Put(1, ByteSpan(small.data(), 1)).ok());
  ASSERT_TRUE(kv->Put(2, ByteSpan(big.data(), big.size())).ok());
  auto rows = kv->Scan(0, 10);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].second, small);
  EXPECT_EQ((*rows)[1].second, big);
}

TEST_F(StorageTest, KvScanOnOrderedBackendsOnly) {
  auto btree_kv = KvStore::Create(store_.get(), 50, KvBackend::kBTree);
  auto hash_kv = KvStore::Create(store_.get(), 51, KvBackend::kHash);
  ASSERT_TRUE(btree_kv.ok());
  ASSERT_TRUE(hash_kv.ok());
  Bytes v = {1};
  ASSERT_TRUE(btree_kv->Put(1, ByteSpan(v.data(), 1)).ok());
  EXPECT_TRUE(btree_kv->Scan(0, 10).ok());
  EXPECT_EQ(hash_kv->Scan(0, 10).status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace hyperion::storage

namespace graph_tests {

using namespace hyperion;           // NOLINT
using namespace hyperion::storage;  // NOLINT

class GraphTest : public ::testing::Test {
 protected:
  GraphTest() : ctrl_(&engine_) {
    mem::ObjectStoreConfig config;
    config.dram_bytes = 32u << 20;
    config.hbm_bytes = 32u << 20;
    config.nvme_nsid = ctrl_.AddNamespace(16384);
    store_ = std::make_unique<mem::ObjectStore>(&engine_, &ctrl_, config);
  }

  sim::Engine engine_;
  nvme::Controller ctrl_;
  std::unique_ptr<mem::ObjectStore> store_;
};

TEST_F(GraphTest, NeighborsAndDegrees) {
  // 0 -> 1, 0 -> 2, 1 -> 2, 3 isolated.
  auto graph = CsrGraph::Build(store_.get(), 1, 4, {{0, 1}, {0, 2}, {1, 2}});
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->node_count(), 4u);
  EXPECT_EQ(graph->edge_count(), 3u);
  EXPECT_EQ(*graph->Neighbors(0), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(*graph->Neighbors(1), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(graph->Neighbors(3)->empty());
  EXPECT_FALSE(graph->Neighbors(4).ok());
}

TEST_F(GraphTest, BfsDistancesOnAPath) {
  // Chain 0 -> 1 -> 2 -> 3, plus a disconnected vertex 4.
  auto graph = CsrGraph::Build(store_.get(), 2, 5, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(graph.ok());
  auto dist = graph->Bfs(0);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(*dist, (std::vector<uint32_t>{0, 1, 2, 3, CsrGraph::kNoPath}));
}

TEST_F(GraphTest, BfsTakesShortestRoute) {
  // Diamond: 0->1->3, 0->2->3, plus long way 0->4->5->3.
  auto graph = CsrGraph::Build(store_.get(), 3, 6,
                               {{0, 1}, {0, 2}, {0, 4}, {1, 3}, {2, 3}, {4, 5}, {5, 3}});
  ASSERT_TRUE(graph.ok());
  auto dist = graph->Bfs(0);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ((*dist)[3], 2u);
}

TEST_F(GraphTest, PageRankSumsToOneAndRanksHubs) {
  // Star: everyone points at vertex 0; 0 points at 1.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t v = 1; v < 10; ++v) {
    edges.emplace_back(v, 0);
  }
  edges.emplace_back(0, 1);
  auto graph = CsrGraph::Build(store_.get(), 4, 10, edges);
  ASSERT_TRUE(graph.ok());
  auto rank = graph->PageRank(30);
  ASSERT_TRUE(rank.ok());
  double sum = 0;
  for (double r : *rank) {
    sum += r;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The hub holds the highest rank; vertex 1 (the hub's only target) second.
  for (uint32_t v = 2; v < 10; ++v) {
    EXPECT_GT((*rank)[0], (*rank)[v]);
    EXPECT_GT((*rank)[1], (*rank)[v]);
  }
}

TEST_F(GraphTest, PageRankHandlesDanglingNodes) {
  // 0 -> 1; 1 dangles. Mass must not leak.
  auto graph = CsrGraph::Build(store_.get(), 5, 2, {{0, 1}});
  ASSERT_TRUE(graph.ok());
  auto rank = graph->PageRank(50);
  ASSERT_TRUE(rank.ok());
  EXPECT_NEAR((*rank)[0] + (*rank)[1], 1.0, 1e-9);
  EXPECT_GT((*rank)[1], (*rank)[0]);
}

TEST_F(GraphTest, SegmentReadsTracked) {
  auto graph = CsrGraph::Build(store_.get(), 6, 3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(graph.ok());
  graph->ResetStats();
  ASSERT_TRUE(graph->Bfs(0).ok());
  // 3 vertices expanded, each costing an offset read + (if edges) edge read.
  EXPECT_GE(graph->segment_reads(), 5u);
}

TEST_F(GraphTest, EmptyGraphAndBadEdgesRejected) {
  EXPECT_FALSE(CsrGraph::Build(store_.get(), 7, 0, {}).ok());
  EXPECT_FALSE(CsrGraph::Build(store_.get(), 8, 2, {{0, 5}}).ok());
  // Edgeless graph is fine.
  auto graph = CsrGraph::Build(store_.get(), 9, 3, {});
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph->Neighbors(1)->empty());
}

}  // namespace graph_tests
