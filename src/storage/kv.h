// KV-SSD facade (paper §2: storage API menu "NVMoF, KV, ZNS"; §2.4:
// network-attached SSDs exporting "trees, lookup-tables").
//
// One key-value interface over a pluggable index backend so workloads (and
// experiment E9's YCSB-style mixes) can choose an ordered (B+ tree) or a
// point-lookup-optimized (hash) layout without changing call sites. The
// write-optimized layout is storage::LsmEngine on ZNS, served on its own
// (ServiceId::kLsmKv). Keys are u64 (KV-SSD style fixed keys); values are
// byte strings of any size: small values inline in the index, large ones
// spill into their own durable segments with a reference in the index (the
// classic KV-SSD value-log split).

#ifndef HYPERION_SRC_STORAGE_KV_H_
#define HYPERION_SRC_STORAGE_KV_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/result.h"
#include "src/mem/object_store.h"
#include "src/storage/bptree.h"
#include "src/storage/hash_index.h"

namespace hyperion::storage {

// Explicit values: E9's bench row names carry them (E9/YCSB-A/hash/2/50),
// so they stay fixed.
enum class KvBackend { kBTree = 0, kHash = 2 };

std::string_view KvBackendName(KvBackend backend);

class KvStore {
 public:
  static Result<KvStore> Create(mem::ObjectStore* store, uint64_t store_id, KvBackend backend);

  // The one copy on the put path happens here, at the mutation/durability
  // boundary: the value is written into the index or its spill segment.
  Status Put(uint64_t key, ByteSpan value);
  Result<Bytes> Get(uint64_t key);
  // Zero-copy get: the returned Buffer adopts the bytes read from the store
  // and slices off the tag — no copy on the way out. Preferred on the
  // datapath (the RPC response shares the same backing block).
  Result<Buffer> GetBuffer(uint64_t key);
  Status Delete(uint64_t key);

  // Ordered scan (B+ tree); kUnimplemented on the hash backend.
  Result<std::vector<std::pair<uint64_t, Bytes>>> Scan(uint64_t lo, uint64_t hi);

  KvBackend backend() const { return backend_; }

 private:
  explicit KvStore(KvBackend backend) : backend_(backend) {}

  Status IndexPut(uint64_t key, ByteSpan tagged);
  Result<Bytes> IndexGet(uint64_t key);
  Status IndexDelete(uint64_t key);
  // Deletes the spilled value segment for `key`, if one exists.
  Status DropIndirect(uint64_t key);

  KvBackend backend_;
  mem::ObjectStore* store_ = nullptr;
  uint64_t store_id_ = 0;
  std::unique_ptr<BPlusTree> btree_;
  std::unique_ptr<HashIndex> hash_;
};

}  // namespace hyperion::storage

#endif  // HYPERION_SRC_STORAGE_KV_H_
