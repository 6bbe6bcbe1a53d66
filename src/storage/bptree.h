// B+ tree over the single-level object store (paper §2.3/§2.4).
//
// Pointer-chasing structures are the paper's canonical latency-sensitive
// workload: a lookup walks height-many nodes, and when the tree lives on a
// network-attached device each hop is a round trip unless the walk executes
// *at* the device. This tree therefore stores every node as its own
// 128-bit-addressed segment, so the per-node access cost (segment
// translation + media) is explicit and the walk can be priced either
// client-driven or DPU-offloaded (experiment E5).
//
// Keys are u64; values are byte strings up to kMaxValueLen. Deletion removes
// the key from its leaf without rebalancing (standard for append-mostly
// storage engines; documented trade-off).

#ifndef HYPERION_SRC_STORAGE_BPTREE_H_
#define HYPERION_SRC_STORAGE_BPTREE_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/mem/object_store.h"

namespace hyperion::storage {

// One node, decoded: what the tree serializes into a node segment when it
// rewrites the node, and what *clients* that walk the tree remotely parse
// (client-driven pointer chasing reads raw node segments over the network
// and parses them locally — experiment E5's baseline). Values are views:
// of the bytes the node was decoded from, or of a value being inserted.
struct NodeView {
  bool is_leaf = true;
  std::vector<uint64_t> keys;
  std::vector<ByteSpan> values;    // leaf only, parallel to keys
  std::vector<uint64_t> children;  // inner only, keys.size() + 1 node ids
  uint64_t next_leaf = 0;          // leaf chain for scans (0 = none)
};

// Parses a raw node segment into a NodeView whose values view `raw`. The
// reference decoder: the tree itself reads nodes in place and checks them
// exactly as this does.
Result<NodeView> ParseBPlusNode(ByteSpan raw);

// Segment id of node `node_id` in tree `tree_id` (stable naming contract).
mem::SegmentId BPlusNodeSegment(uint64_t tree_id, uint64_t node_id);

class BPlusTree {
 public:
  static constexpr uint32_t kNodeBytes = 4096;
  static constexpr uint32_t kMaxValueLen = 256;
  // Fanout chosen so a full inner node serializes under kNodeBytes.
  static constexpr uint32_t kMaxInnerKeys = 160;
  static constexpr uint32_t kMaxLeafEntries = 12;

  // Creates an empty tree whose nodes are derived from `tree_id`.
  // `hints` controls node placement (e.g. durable => NVMe-resident nodes).
  static Result<BPlusTree> Create(mem::ObjectStore* store, uint64_t tree_id,
                                  mem::SegmentHints hints = {});

  Status Insert(uint64_t key, ByteSpan value);
  Result<Bytes> Get(uint64_t key);
  Status Delete(uint64_t key);  // kNotFound if absent

  // All entries with key in [lo, hi], in key order.
  Result<std::vector<std::pair<uint64_t, Bytes>>> Scan(uint64_t lo, uint64_t hi);

  uint32_t Height() const { return height_; }
  uint64_t EntryCount() const { return entry_count_; }
  uint64_t tree_id() const { return tree_id_; }
  uint64_t root_node_id() const { return root_; }

  // Node reads performed since the last ResetStats (the "pointer chases").
  uint64_t NodeReads() const { return node_reads_; }
  void ResetStats() { node_reads_ = 0; }

 private:
  BPlusTree(mem::ObjectStore* store, uint64_t tree_id, mem::SegmentHints hints)
      : store_(store), tree_id_(tree_id), hints_(hints) {}

  // One node's serialized bytes, checked in place; defined in bptree.cc.
  class Image;

  mem::SegmentId NodeSegment(uint64_t node_id) const;
  Result<uint64_t> AllocateNode(const NodeView& node);
  // Every node read goes through ReadImage, which reads the node into the
  // buffer of its depth (0 = root) and checks it in place. Walks decode
  // only the nodes they rewrite.
  Result<Image> ReadImage(uint64_t node_id, uint32_t depth);
  // Serializes `node` into the reused write buffer and stores it.
  Status WriteNode(uint64_t node_id, const NodeView& node);

  // Child ids come off media, so one may name its own node or an
  // ancestor. Every descent therefore checks the tree's shape as it goes:
  // the node at depth Height() must be a leaf, or the walk answers DataLoss.
  //
  // The leaf covering `key` and its node id. With `path`, also the ids of
  // the inner nodes the walk read, root first; the image of path[d] stays
  // in depth d's buffer until the next walk.
  Result<std::pair<uint64_t, Image>> Descend(uint64_t key,
                                             std::vector<uint64_t>* path = nullptr);
  // Moves the upper half of overfull `node` to a new right sibling, which
  // is written before `node` is rewritten; returns the separator key for
  // the parent and the sibling's id.
  Result<std::pair<uint64_t, uint64_t>> Split(uint64_t node_id, NodeView& node);

  mem::ObjectStore* store_;
  uint64_t tree_id_;
  mem::SegmentHints hints_;
  uint64_t root_ = 0;
  uint64_t next_node_id_ = 1;
  uint32_t height_ = 1;
  uint64_t entry_count_ = 0;
  uint64_t node_reads_ = 0;
  // Reused across operations so a warmed walk or edit allocates nothing:
  // one node buffer per depth, Insert's path, the decoded node an edit
  // rewrites and the sibling a split fills, and the serialized node.
  std::vector<Bytes> depth_buffers_;
  std::vector<uint64_t> path_;
  NodeView edit_;
  NodeView sibling_;
  Bytes node_out_;
};

}  // namespace hyperion::storage

#endif  // HYPERION_SRC_STORAGE_BPTREE_H_
