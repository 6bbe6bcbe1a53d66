#include "src/storage/bptree.h"

#include <algorithm>
#include <ranges>

#include "src/common/check.h"

namespace hyperion::storage {

namespace {

// Serializes `node` into `out` as WriteNode stores it, padded to
// kNodeBytes. `out` keeps its storage from one node to the next.
void SerializeNode(const NodeView& node, Bytes& out) {
  out.clear();
  out.reserve(BPlusTree::kNodeBytes);
  out.push_back(node.is_leaf ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(node.keys.size()));
  PutU64(out, node.next_leaf);
  for (uint64_t k : node.keys) {
    PutU64(out, k);
  }
  if (node.is_leaf) {
    for (const ByteSpan v : node.values) {
      PutU32(out, static_cast<uint32_t>(v.size()));
      PutBytes(out, v);
    }
  } else {
    for (uint64_t c : node.children) {
      PutU64(out, c);
    }
  }
  CHECK_LE(out.size(), BPlusTree::kNodeBytes) << "node serialization overflow";
  out.resize(BPlusTree::kNodeBytes, 0);
}

// Expected misses answer this one Status, built once and shared by
// refcount, so a lookup of an absent key allocates nothing.
const Status& KeyNotInTree() {
  static const Status kMiss = NotFound("key not in tree");
  return kMiss;
}

// The bytes SerializeNode writes for a leaf holding entries [begin, end)
// of `leaf`: the flag, count and link, then a key, a length and the bytes
// of each value.
size_t LeafBytes(const NodeView& leaf, size_t begin, size_t end) {
  size_t bytes = 1 + 4 + 8;
  for (size_t i = begin; i < end; ++i) {
    bytes += 8 + 4 + leaf.values[i].size();
  }
  return bytes;
}

}  // namespace

Result<NodeView> ParseBPlusNode(ByteSpan raw) {
  ByteReader reader(raw);
  NodeView node;
  node.is_leaf = reader.ReadU8() != 0;
  const uint32_t count = reader.ReadU32();
  node.next_leaf = reader.ReadU64();
  if (count > BPlusTree::kNodeBytes / 8) {
    return DataLoss("implausible B+ node entry count");
  }
  node.keys.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    node.keys[i] = reader.ReadU64();
  }
  if (node.is_leaf) {
    node.values.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      const uint32_t len = reader.ReadU32();
      const size_t at = reader.offset();
      reader.Skip(len);
      if (reader.Ok()) {
        node.values[i] = raw.subspan(at, len);
      }
    }
  } else {
    node.children.resize(count + 1);
    for (uint32_t i = 0; i <= count; ++i) {
      node.children[i] = reader.ReadU64();
    }
  }
  if (!reader.Ok()) {
    return DataLoss("truncated B+ node");
  }
  return node;
}

// A serialized node read in place: a view of the bytes in a depth buffer.
// Parse makes exactly ParseBPlusNode's checks, in its order and with its
// DataLoss messages, so a walk never decodes a node it only routes through
// or reads; DecodeInto() is there for the nodes a walk rewrites.
class BPlusTree::Image {
 public:
  static Result<Image> Parse(ByteSpan raw) {
    Image image(raw);
    const ByteSpan in = image.raw();
    // ParseBPlusNode reads the count before it checks anything, so an
    // implausible count wins over a header cut short after it.
    if (in.size() >= 5) {
      image.count_ = GetU32(in, 1);
      if (image.count_ > kNodeBytes / 8) {
        return DataLoss("implausible B+ node entry count");
      }
    }
    size_t end = kHeaderBytes + 8 * size_t{image.count_};  // through the keys
    if (in.size() < end) {
      return DataLoss("truncated B+ node");
    }
    image.is_leaf_ = in[0] != 0;
    if (image.is_leaf_) {
      for (uint32_t i = 0; i < image.count_; ++i) {
        if (in.size() - end < 4 || in.size() - end - 4 < GetU32(in, end)) {
          return DataLoss("truncated B+ node");
        }
        end += 4 + size_t{GetU32(in, end)};
      }
    } else if ((in.size() - end) / 8 < size_t{image.count_} + 1) {
      return DataLoss("truncated B+ node");
    }
    return image;
  }

  bool is_leaf() const { return is_leaf_; }
  uint32_t count() const { return count_; }
  ByteSpan raw() const { return raw_; }
  uint64_t NextLeaf() const { return GetU64(raw(), 1 + 4); }
  uint64_t Key(uint32_t i) const { return GetU64(raw(), kHeaderBytes + 8 * size_t{i}); }
  // Inner nodes: child i of count() + 1.
  uint64_t Child(uint32_t i) const {
    return GetU64(raw(), kHeaderBytes + 8 * (size_t{count_} + i));
  }
  // Leaves: value i, found by walking the length-prefixed values before it.
  ByteSpan Value(uint32_t i) const {
    size_t at = kHeaderBytes + 8 * size_t{count_};
    for (uint32_t j = 0; j < i; ++j) {
      at += 4 + size_t{GetU32(raw(), at)};
    }
    return raw().subspan(at + 4, GetU32(raw(), at));
  }

  // `bound` (std::ranges::lower_bound or upper_bound) over the keys, by the
  // same halving as on decoded keys, so even a corrupt node's unsorted keys
  // route as its decoded image would.
  template <typename Bound>
  uint32_t Position(const Bound& bound, uint64_t key) const {
    const std::ranges::iota_view<uint32_t, uint32_t> keys(0u, count_);
    const auto key_of = [this](uint32_t i) { return Key(i); };
    return static_cast<uint32_t>(bound(keys, key, {}, key_of) - keys.begin());
  }

  // Decodes the node into `node`, reusing its vectors' storage; the values
  // view this image's bytes. Parse has checked the layout, so this is
  // ParseBPlusNode's result without its checks.
  void DecodeInto(NodeView& node) const {
    node.is_leaf = is_leaf_;
    node.next_leaf = NextLeaf();
    node.keys.resize(count_);
    for (uint32_t i = 0; i < count_; ++i) {
      node.keys[i] = Key(i);
    }
    node.values.clear();
    node.children.clear();
    if (is_leaf_) {
      size_t at = kHeaderBytes + 8 * size_t{count_};
      for (uint32_t i = 0; i < count_; ++i) {
        const uint32_t len = GetU32(raw_, at);
        node.values.push_back(raw_.subspan(at + 4, len));
        at += 4 + size_t{len};
      }
    } else {
      for (uint32_t i = 0; i <= count_; ++i) {
        node.children.push_back(Child(i));
      }
    }
  }

 private:
  static constexpr size_t kHeaderBytes = 1 + 4 + 8;  // is_leaf, count, next_leaf

  explicit Image(ByteSpan raw) : raw_(raw) {}

  ByteSpan raw_;
  bool is_leaf_ = false;
  uint32_t count_ = 0;
};

mem::SegmentId BPlusNodeSegment(uint64_t tree_id, uint64_t node_id) {
  // Namespaced 128-bit id: high word identifies the tree, low the node.
  return mem::SegmentId(0xB7EE000000000000ull | tree_id, node_id);
}

mem::SegmentId BPlusTree::NodeSegment(uint64_t node_id) const {
  return BPlusNodeSegment(tree_id_, node_id);
}

Result<BPlusTree> BPlusTree::Create(mem::ObjectStore* store, uint64_t tree_id,
                                    mem::SegmentHints hints) {
  BPlusTree tree(store, tree_id, hints);
  ASSIGN_OR_RETURN(tree.root_, tree.AllocateNode(NodeView{}));
  return tree;
}

Result<uint64_t> BPlusTree::AllocateNode(const NodeView& node) {
  const uint64_t id = next_node_id_++;
  RETURN_IF_ERROR(store_->CreateWithId(NodeSegment(id), kNodeBytes, hints_));
  RETURN_IF_ERROR(WriteNode(id, node));
  return id;
}

Result<BPlusTree::Image> BPlusTree::ReadImage(uint64_t node_id, uint32_t depth) {
  ++node_reads_;
  if (depth >= depth_buffers_.size()) {
    depth_buffers_.resize(depth + 1, Bytes(kNodeBytes));
  }
  const MutableByteSpan buffer(depth_buffers_[depth]);
  RETURN_IF_ERROR(store_->ReadInto(NodeSegment(node_id), 0, buffer));
  return Image::Parse(buffer);
}

Status BPlusTree::WriteNode(uint64_t node_id, const NodeView& node) {
  SerializeNode(node, node_out_);
  return store_->Write(NodeSegment(node_id), 0, ByteSpan(node_out_.data(), node_out_.size()));
}

Result<std::pair<uint64_t, BPlusTree::Image>> BPlusTree::Descend(uint64_t key,
                                                                  std::vector<uint64_t>* path) {
  if (path != nullptr) {
    path->clear();
  }
  uint64_t node_id = root_;
  for (uint32_t depth = 1;; ++depth) {
    ASSIGN_OR_RETURN(const Image image, ReadImage(node_id, depth - 1));
    if (image.is_leaf()) {
      return std::make_pair(node_id, image);
    }
    if (depth == height_) {
      return DataLoss("B+ tree walk deeper than the tree's height");
    }
    if (path != nullptr) {
      path->push_back(node_id);
    }
    node_id = image.Child(image.Position(std::ranges::upper_bound, key));
  }
}

Result<std::pair<uint64_t, uint64_t>> BPlusTree::Split(uint64_t node_id, NodeView& node) {
  const size_t mid = node.keys.size() / 2;
  const uint64_t separator = node.keys[mid];
  NodeView& right = sibling_;
  right.is_leaf = node.is_leaf;
  // A leaf keeps its middle key as the sibling's first; an inner node's moves up.
  right.keys.assign(node.keys.begin() + static_cast<ptrdiff_t>(mid + (node.is_leaf ? 0 : 1)),
                    node.keys.end());
  node.keys.resize(mid);
  if (node.is_leaf) {
    right.values.assign(node.values.begin() + static_cast<ptrdiff_t>(mid), node.values.end());
    right.children.clear();
    node.values.resize(mid);
    right.next_leaf = node.next_leaf;
  } else {
    right.values.clear();
    right.children.assign(node.children.begin() + static_cast<ptrdiff_t>(mid) + 1,
                          node.children.end());
    node.children.resize(mid + 1);
    right.next_leaf = 0;
  }
  ASSIGN_OR_RETURN(const uint64_t right_id, AllocateNode(right));
  if (node.is_leaf) {
    node.next_leaf = right_id;
  }
  RETURN_IF_ERROR(WriteNode(node_id, node));
  return std::make_pair(separator, right_id);
}

Status BPlusTree::Insert(uint64_t key, ByteSpan value) {
  if (value.size() > kMaxValueLen) {
    return InvalidArgument("value exceeds kMaxValueLen");
  }
  ASSIGN_OR_RETURN(const auto found, Descend(key, &path_));
  uint64_t node_id = found.first;
  NodeView& node = edit_;
  found.second.DecodeInto(node);
  auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
  const ptrdiff_t pos = it - node.keys.begin();
  const bool overwrite = it != node.keys.end() && *it == key;
  if (overwrite) {
    node.values[static_cast<size_t>(pos)] = value;
  } else {
    node.keys.insert(it, key);
    node.values.insert(node.values.begin() + pos, value);
  }
  // A leaf read off corrupt media can hold values longer than any Insert
  // writes. If the leaf, or a half of the split it is due, no longer fits
  // a node, refuse before anything is written. Inner nodes always fit: a
  // parsed one holds at most 254 keys and splits past kMaxInnerKeys.
  const size_t entries = node.keys.size();
  const size_t mid = entries > kMaxLeafEntries ? entries / 2 : entries;
  if (LeafBytes(node, 0, mid) > kNodeBytes || LeafBytes(node, mid, entries) > kNodeBytes) {
    return DataLoss("B+ tree leaf overflows its node");
  }
  if (!overwrite) {
    ++entry_count_;
  }
  // Splits run bottom-up: each parent a split reaches is decoded, gains the
  // separator and the new sibling, and splits in turn if it overflows.
  while (node.keys.size() > (node.is_leaf ? kMaxLeafEntries : kMaxInnerKeys)) {
    ASSIGN_OR_RETURN(const auto split, Split(node_id, node));
    if (path_.empty()) {  // the root split: a new root comes last
      NodeView root{.is_leaf = false, .keys = {split.first}, .values = {},
                    .children = {root_, split.second}};
      ASSIGN_OR_RETURN(root_, AllocateNode(root));
      ++height_;
      return Status::Ok();
    }
    // The parent's image is still in the buffer of its depth, and Descend
    // checked it there.
    const size_t depth = path_.size() - 1;
    node_id = path_.back();
    path_.pop_back();
    ASSIGN_OR_RETURN(const Image parent, Image::Parse(depth_buffers_[depth]));
    parent.DecodeInto(node);
    const ptrdiff_t child = std::upper_bound(node.keys.begin(), node.keys.end(), key) -
                            node.keys.begin();
    node.keys.insert(node.keys.begin() + child, split.first);
    node.children.insert(node.children.begin() + child + 1, split.second);
  }
  return WriteNode(node_id, node);
}

Result<Bytes> BPlusTree::Get(uint64_t key) {
  ASSIGN_OR_RETURN(const auto found, Descend(key));
  const Image& leaf = found.second;
  const uint32_t pos = leaf.Position(std::ranges::lower_bound, key);
  if (pos == leaf.count() || leaf.Key(pos) != key) {
    return KeyNotInTree();
  }
  const ByteSpan value = leaf.Value(pos);
  return Bytes(value.begin(), value.end());
}

Status BPlusTree::Delete(uint64_t key) {
  // Remembering the path is unnecessary: no rebalancing.
  ASSIGN_OR_RETURN(const auto found, Descend(key));
  const Image& leaf = found.second;
  const uint32_t pos = leaf.Position(std::ranges::lower_bound, key);
  if (pos == leaf.count() || leaf.Key(pos) != key) {
    return KeyNotInTree();
  }
  NodeView& node = edit_;
  leaf.DecodeInto(node);
  node.keys.erase(node.keys.begin() + pos);
  node.values.erase(node.values.begin() + pos);
  --entry_count_;
  return WriteNode(found.first, node);
}

Result<std::vector<std::pair<uint64_t, Bytes>>> BPlusTree::Scan(uint64_t lo, uint64_t hi) {
  if (lo > hi) {
    return InvalidArgument("scan range is inverted");
  }
  std::vector<std::pair<uint64_t, Bytes>> out;
  ASSIGN_OR_RETURN(auto found, Descend(lo));
  Image leaf = found.second;
  // Walk the leaf chain, reading each next leaf into the leaf level's
  // buffer. Its links come off media too: an honest chain holds only
  // leaves, and no more of them than the tree has nodes.
  for (uint64_t leaves = 1;; ++leaves) {
    for (uint32_t i = 0; i < leaf.count(); ++i) {
      if (const uint64_t k = leaf.Key(i); k >= lo && k <= hi) {
        const ByteSpan value = leaf.Value(i);
        out.emplace_back(k, Bytes(value.begin(), value.end()));
      }
    }
    if (leaf.NextLeaf() == 0 || (leaf.count() > 0 && leaf.Key(leaf.count() - 1) > hi)) {
      return out;
    }
    if (leaves == next_node_id_ - 1) {
      return DataLoss("B+ tree leaf chain longer than the tree");
    }
    ASSIGN_OR_RETURN(leaf, ReadImage(leaf.NextLeaf(), height_ - 1));
    if (!leaf.is_leaf()) {
      return DataLoss("B+ tree leaf chain reaches an inner node");
    }
  }
}

}  // namespace hyperion::storage
