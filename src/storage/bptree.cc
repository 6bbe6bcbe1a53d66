#include "src/storage/bptree.h"

#include <algorithm>
#include <ranges>

#include "src/common/check.h"

namespace hyperion::storage {

namespace {
Status TooDeep() { return DataLoss("B+ tree walk deeper than the tree's height"); }
}  // namespace

// In-memory node image; serialized into one kNodeBytes segment.
struct BPlusTree::Node {
  bool is_leaf = true;
  std::vector<uint64_t> keys;
  std::vector<Bytes> values;      // leaf only, parallel to keys
  std::vector<uint64_t> children; // inner only, keys.size() + 1 entries
  uint64_t next_leaf = 0;         // leaf chain for scans (0 = none)

  Bytes Serialize() const {
    Bytes out;
    out.reserve(kNodeBytes);  // WriteNode pads to kNodeBytes without regrowing
    out.push_back(is_leaf ? 1 : 0);
    PutU32(out, static_cast<uint32_t>(keys.size()));
    PutU64(out, next_leaf);
    for (uint64_t k : keys) {
      PutU64(out, k);
    }
    if (is_leaf) {
      for (const Bytes& v : values) {
        PutU32(out, static_cast<uint32_t>(v.size()));
        PutBytes(out, ByteSpan(v.data(), v.size()));
      }
    } else {
      for (uint64_t c : children) {
        PutU64(out, c);
      }
    }
    CHECK_LE(out.size(), kNodeBytes) << "node serialization overflow";
    return out;
  }

  static Result<Node> Deserialize(ByteSpan data) {
    ByteReader reader(data);
    Node node;
    node.is_leaf = reader.ReadU8() != 0;
    const uint32_t count = reader.ReadU32();
    node.next_leaf = reader.ReadU64();
    if (count > kNodeBytes / 8) {
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
        node.values[i] = reader.ReadBytes(len);
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
};

// A serialized node read in place. Parse makes exactly Node::Deserialize's
// checks, in its order and with its DataLoss messages, so a walk that only
// routes through a node (Get, and the descent of Delete and Scan) never
// decodes it; Decode() is there for the nodes a walk rewrites or returns.
class BPlusTree::Image {
 public:
  static Result<Image> Parse(Bytes raw) {
    Image image(std::move(raw));
    const ByteSpan in = image.raw();
    // Deserialize reads the count before it checks anything, so an
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
  ByteSpan raw() const { return ByteSpan(raw_.data(), raw_.size()); }
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

  // std::lower_bound / std::upper_bound over the keys, by the same halving,
  // so even a corrupt node's unsorted keys route as its decoded image would.
  uint32_t LowerBound(uint64_t key) const {
    const auto keys = Indexes();
    const auto key_of = [this](uint32_t i) { return Key(i); };
    return static_cast<uint32_t>(std::ranges::lower_bound(keys, key, {}, key_of) - keys.begin());
  }
  uint32_t UpperBound(uint64_t key) const {
    const auto keys = Indexes();
    const auto key_of = [this](uint32_t i) { return Key(i); };
    return static_cast<uint32_t>(std::ranges::upper_bound(keys, key, {}, key_of) - keys.begin());
  }

  Result<Node> Decode() const { return Node::Deserialize(raw()); }

 private:
  static constexpr size_t kHeaderBytes = 1 + 4 + 8;  // is_leaf, count, next_leaf

  explicit Image(Bytes raw) : raw_(std::move(raw)) {}
  std::ranges::iota_view<uint32_t, uint32_t> Indexes() const { return {0u, count_}; }

  Bytes raw_;
  bool is_leaf_ = false;
  uint32_t count_ = 0;
};

mem::SegmentId BPlusNodeSegment(uint64_t tree_id, uint64_t node_id) {
  // Namespaced 128-bit id: high word identifies the tree, low the node.
  return mem::SegmentId(0xB7EE000000000000ull | tree_id, node_id);
}

Result<NodeView> ParseBPlusNode(ByteSpan raw) {
  ASSIGN_OR_RETURN(BPlusTree::Node node, BPlusTree::Node::Deserialize(raw));
  NodeView view;
  view.is_leaf = node.is_leaf;
  view.keys = std::move(node.keys);
  view.values = std::move(node.values);
  view.children = std::move(node.children);
  view.next_leaf = node.next_leaf;
  return view;
}

mem::SegmentId BPlusTree::NodeSegment(uint64_t node_id) const {
  return BPlusNodeSegment(tree_id_, node_id);
}

Result<BPlusTree> BPlusTree::Create(mem::ObjectStore* store, uint64_t tree_id,
                                    mem::SegmentHints hints) {
  BPlusTree tree(store, tree_id, hints);
  Node root;
  root.is_leaf = true;
  ASSIGN_OR_RETURN(tree.root_, tree.AllocateNode(root));
  return tree;
}

Result<uint64_t> BPlusTree::AllocateNode(const Node& node) {
  const uint64_t id = next_node_id_++;
  RETURN_IF_ERROR(store_->CreateWithId(NodeSegment(id), kNodeBytes, hints_));
  RETURN_IF_ERROR(WriteNode(id, node));
  return id;
}

Result<BPlusTree::Image> BPlusTree::ReadImage(uint64_t node_id) {
  ++node_reads_;
  ASSIGN_OR_RETURN(Bytes raw, store_->Read(NodeSegment(node_id), 0, kNodeBytes));
  return Image::Parse(std::move(raw));
}

Result<BPlusTree::Node> BPlusTree::ReadNode(uint64_t node_id) {
  ASSIGN_OR_RETURN(Image image, ReadImage(node_id));
  return image.Decode();
}

Status BPlusTree::WriteNode(uint64_t node_id, const Node& node) {
  Bytes raw = node.Serialize();
  raw.resize(kNodeBytes, 0);
  return store_->Write(NodeSegment(node_id), 0, ByteSpan(raw.data(), raw.size()));
}

Result<std::pair<uint64_t, BPlusTree::Image>> BPlusTree::Descend(uint64_t key) {
  uint64_t node_id = root_;
  for (uint32_t depth = 1;; ++depth) {
    ASSIGN_OR_RETURN(Image image, ReadImage(node_id));
    if (image.is_leaf()) {
      return std::make_pair(node_id, std::move(image));
    }
    if (depth == height_) {
      return TooDeep();
    }
    node_id = image.Child(image.UpperBound(key));
  }
}

Result<std::optional<std::pair<uint64_t, uint64_t>>> BPlusTree::InsertRec(uint64_t node_id,
                                                                          uint32_t depth,
                                                                          uint64_t key,
                                                                          ByteSpan value) {
  ASSIGN_OR_RETURN(Node node, ReadNode(node_id));
  if (node.is_leaf) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    const size_t pos = static_cast<size_t>(it - node.keys.begin());
    if (it != node.keys.end() && *it == key) {
      node.values[pos] = Bytes(value.begin(), value.end());  // overwrite
    } else {
      node.keys.insert(it, key);
      node.values.insert(node.values.begin() + static_cast<ptrdiff_t>(pos),
                         Bytes(value.begin(), value.end()));
      ++entry_count_;
    }
    if (node.keys.size() <= kMaxLeafEntries) {
      RETURN_IF_ERROR(WriteNode(node_id, node));
      return std::optional<std::pair<uint64_t, uint64_t>>{};
    }
    // Split the leaf.
    const size_t mid = node.keys.size() / 2;
    Node right;
    right.is_leaf = true;
    right.keys.assign(node.keys.begin() + static_cast<ptrdiff_t>(mid), node.keys.end());
    right.values.assign(node.values.begin() + static_cast<ptrdiff_t>(mid), node.values.end());
    right.next_leaf = node.next_leaf;
    node.keys.resize(mid);
    node.values.resize(mid);
    ASSIGN_OR_RETURN(uint64_t right_id, AllocateNode(right));
    node.next_leaf = right_id;
    RETURN_IF_ERROR(WriteNode(node_id, node));
    return std::make_optional(std::make_pair(right.keys.front(), right_id));
  }
  // Inner: route to the child covering `key`.
  if (depth == height_) {
    return TooDeep();
  }
  auto it = std::upper_bound(node.keys.begin(), node.keys.end(), key);
  const size_t child_idx = static_cast<size_t>(it - node.keys.begin());
  ASSIGN_OR_RETURN(auto split, InsertRec(node.children[child_idx], depth + 1, key, value));
  if (!split.has_value()) {
    return std::optional<std::pair<uint64_t, uint64_t>>{};
  }
  node.keys.insert(node.keys.begin() + static_cast<ptrdiff_t>(child_idx), split->first);
  node.children.insert(node.children.begin() + static_cast<ptrdiff_t>(child_idx) + 1,
                       split->second);
  if (node.keys.size() <= kMaxInnerKeys) {
    RETURN_IF_ERROR(WriteNode(node_id, node));
    return std::optional<std::pair<uint64_t, uint64_t>>{};
  }
  // Split the inner node; the middle key moves up.
  const size_t mid = node.keys.size() / 2;
  const uint64_t up_key = node.keys[mid];
  Node right;
  right.is_leaf = false;
  right.keys.assign(node.keys.begin() + static_cast<ptrdiff_t>(mid) + 1, node.keys.end());
  right.children.assign(node.children.begin() + static_cast<ptrdiff_t>(mid) + 1,
                        node.children.end());
  node.keys.resize(mid);
  node.children.resize(mid + 1);
  ASSIGN_OR_RETURN(uint64_t right_id, AllocateNode(right));
  RETURN_IF_ERROR(WriteNode(node_id, node));
  return std::make_optional(std::make_pair(up_key, right_id));
}

Status BPlusTree::Insert(uint64_t key, ByteSpan value) {
  if (value.size() > kMaxValueLen) {
    return InvalidArgument("value exceeds kMaxValueLen");
  }
  ASSIGN_OR_RETURN(auto split, InsertRec(root_, 1, key, value));
  if (split.has_value()) {
    // Grow a new root.
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split->first);
    new_root.children.push_back(root_);
    new_root.children.push_back(split->second);
    ASSIGN_OR_RETURN(root_, AllocateNode(new_root));
    ++height_;
  }
  return Status::Ok();
}

Result<Bytes> BPlusTree::Get(uint64_t key) {
  ASSIGN_OR_RETURN(auto found, Descend(key));
  const Image& leaf = found.second;
  const uint32_t pos = leaf.LowerBound(key);
  if (pos == leaf.count() || leaf.Key(pos) != key) {
    return NotFound("key not in tree");
  }
  const ByteSpan value = leaf.Value(pos);
  return Bytes(value.begin(), value.end());
}

Status BPlusTree::Delete(uint64_t key) {
  // Remembering the path is unnecessary: no rebalancing.
  ASSIGN_OR_RETURN(auto found, Descend(key));
  ASSIGN_OR_RETURN(Node node, found.second.Decode());
  auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
  if (it == node.keys.end() || *it != key) {
    return NotFound("key not in tree");
  }
  const size_t pos = static_cast<size_t>(it - node.keys.begin());
  node.keys.erase(it);
  node.values.erase(node.values.begin() + static_cast<ptrdiff_t>(pos));
  --entry_count_;
  return WriteNode(found.first, node);
}

Result<std::vector<std::pair<uint64_t, Bytes>>> BPlusTree::Scan(uint64_t lo, uint64_t hi) {
  if (lo > hi) {
    return InvalidArgument("scan range is inverted");
  }
  std::vector<std::pair<uint64_t, Bytes>> out;
  ASSIGN_OR_RETURN(auto found, Descend(lo));
  ASSIGN_OR_RETURN(Node leaf, found.second.Decode());
  // Walk the leaf chain. Its links come off media too: an honest chain
  // holds only leaves, and no more of them than the tree has nodes.
  for (uint64_t leaves = 1;; ++leaves) {
    for (size_t i = 0; i < leaf.keys.size(); ++i) {
      if (leaf.keys[i] >= lo && leaf.keys[i] <= hi) {
        out.emplace_back(leaf.keys[i], leaf.values[i]);
      }
    }
    if (leaf.next_leaf == 0 || (!leaf.keys.empty() && leaf.keys.back() > hi)) {
      return out;
    }
    if (leaves == next_node_id_ - 1) {
      return DataLoss("B+ tree leaf chain longer than the tree");
    }
    ASSIGN_OR_RETURN(leaf, ReadNode(leaf.next_leaf));
    if (!leaf.is_leaf) {
      return DataLoss("B+ tree leaf chain reaches an inner node");
    }
  }
}

}  // namespace hyperion::storage
