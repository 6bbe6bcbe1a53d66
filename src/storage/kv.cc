#include "src/storage/kv.h"

namespace hyperion::storage {

namespace {
Bytes KeyBytes(uint64_t key) {
  Bytes b;
  PutU64(b, key);
  return b;
}

// Every stored value carries a 1-byte tag so the KV layer can spill large
// values ("indirect") into their own durable segments — the KV-SSD pattern:
// the index stays small, values are unbounded.
constexpr uint8_t kInline = 0x00;
constexpr uint8_t kIndirect = 0x01;
// Values above this go indirect (kept under every backend's inline cap).
constexpr size_t kInlineMax = 200;

mem::SegmentId ValueSegment(uint64_t store_id, uint64_t key) {
  return mem::SegmentId(0x4B56000000000000ull | store_id, key);
}
}  // namespace

std::string_view KvBackendName(KvBackend backend) {
  switch (backend) {
    case KvBackend::kBTree:
      return "btree";
    case KvBackend::kHash:
      return "hash";
  }
  return "?";
}

Result<KvStore> KvStore::Create(mem::ObjectStore* store, uint64_t store_id, KvBackend backend) {
  KvStore kv(backend);
  kv.store_ = store;
  kv.store_id_ = store_id;
  switch (backend) {
    case KvBackend::kBTree: {
      ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(store, store_id, {.durable = true}));
      kv.btree_ = std::make_unique<BPlusTree>(std::move(tree));
      break;
    }
    case KvBackend::kHash: {
      ASSIGN_OR_RETURN(HashIndex index, HashIndex::Create(store, store_id, 64));
      kv.hash_ = std::make_unique<HashIndex>(std::move(index));
      break;
    }
  }
  return kv;
}

Status KvStore::IndexPut(uint64_t key, ByteSpan tagged) {
  switch (backend_) {
    case KvBackend::kBTree:
      return btree_->Insert(key, tagged);
    case KvBackend::kHash: {
      Bytes kb = KeyBytes(key);
      return hash_->Put(ByteSpan(kb.data(), kb.size()), tagged);
    }
  }
  return Internal("bad backend");
}

Result<Bytes> KvStore::IndexGet(uint64_t key) {
  switch (backend_) {
    case KvBackend::kBTree:
      return btree_->Get(key);
    case KvBackend::kHash: {
      Bytes kb = KeyBytes(key);
      return hash_->Get(ByteSpan(kb.data(), kb.size()));
    }
  }
  return Internal("bad backend");
}

Status KvStore::IndexDelete(uint64_t key) {
  switch (backend_) {
    case KvBackend::kBTree:
      return btree_->Delete(key);
    case KvBackend::kHash: {
      Bytes kb = KeyBytes(key);
      return hash_->Delete(ByteSpan(kb.data(), kb.size()));
    }
  }
  return Internal("bad backend");
}

Status KvStore::DropIndirect(uint64_t key) {
  Result<Bytes> existing = IndexGet(key);
  if (existing.ok() && !existing->empty() && (*existing)[0] == kIndirect) {
    Status st = store_->Delete(ValueSegment(store_id_, key));
    if (!st.ok() && st.code() != StatusCode::kNotFound) {
      return st;
    }
  }
  return Status::Ok();
}

Status KvStore::Put(uint64_t key, ByteSpan value) {
  // Release a stale spilled value (overwrite/resize path).
  RETURN_IF_ERROR(DropIndirect(key));
  // The put path's one copy: the value crosses the mutation/durability
  // boundary into the index or its spill segment. Charged so experiment
  // copy-bytes stats cover the whole datapath, not just the buffer layer.
  AccountBufferCopy(value.size());
  if (value.size() <= kInlineMax) {
    Bytes tagged;
    tagged.reserve(value.size() + 1);
    tagged.push_back(kInline);
    tagged.insert(tagged.end(), value.begin(), value.end());
    return IndexPut(key, ByteSpan(tagged.data(), tagged.size()));
  }
  // Spill: the value gets its own durable segment; the index holds a ref.
  const mem::SegmentId seg = ValueSegment(store_id_, key);
  RETURN_IF_ERROR(store_->CreateWithId(seg, value.size(), {.durable = true}));
  RETURN_IF_ERROR(store_->Write(seg, 0, value));
  Bytes ref;
  ref.push_back(kIndirect);
  PutU64(ref, value.size());
  return IndexPut(key, ByteSpan(ref.data(), ref.size()));
}

Result<Bytes> KvStore::Get(uint64_t key) {
  ASSIGN_OR_RETURN(Bytes tagged, IndexGet(key));
  if (tagged.empty()) {
    return DataLoss("untagged KV value");
  }
  if (tagged[0] == kInline) {
    return Bytes(tagged.begin() + 1, tagged.end());
  }
  if (tagged[0] == kIndirect) {
    const uint64_t size = GetU64(tagged, 1);
    return store_->Read(ValueSegment(store_id_, key), 0, size);
  }
  return DataLoss("corrupt KV value tag");
}

Result<Buffer> KvStore::GetBuffer(uint64_t key) {
  ASSIGN_OR_RETURN(Bytes tagged, IndexGet(key));
  if (tagged.empty()) {
    return DataLoss("untagged KV value");
  }
  if (tagged[0] == kInline) {
    // Adopt the tagged block and slice past the tag — shares the backing.
    return Buffer(std::move(tagged)).Slice(1);
  }
  if (tagged[0] == kIndirect) {
    const uint64_t size = GetU64(tagged, 1);
    ASSIGN_OR_RETURN(Bytes value, store_->Read(ValueSegment(store_id_, key), 0, size));
    return Buffer(std::move(value));
  }
  return DataLoss("corrupt KV value tag");
}

Status KvStore::Delete(uint64_t key) {
  RETURN_IF_ERROR(DropIndirect(key));
  return IndexDelete(key);
}

Result<std::vector<std::pair<uint64_t, Bytes>>> KvStore::Scan(uint64_t lo, uint64_t hi) {
  if (backend_ == KvBackend::kHash) {
    return Unimplemented("hash index has no key order");
  }
  ASSIGN_OR_RETURN(auto rows, btree_->Scan(lo, hi));
  std::vector<std::pair<uint64_t, Bytes>> out;
  out.reserve(rows.size());
  for (auto& [key, tagged] : rows) {
    if (tagged.empty()) {
      return DataLoss("untagged KV value");
    }
    if (tagged[0] == kInline) {
      out.emplace_back(key, Bytes(tagged.begin() + 1, tagged.end()));
    } else {
      const uint64_t size = GetU64(tagged, 1);
      ASSIGN_OR_RETURN(Bytes value, store_->Read(ValueSegment(store_id_, key), 0, size));
      out.emplace_back(key, std::move(value));
    }
  }
  return out;
}

}  // namespace hyperion::storage
