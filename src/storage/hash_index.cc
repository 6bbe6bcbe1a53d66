#include "src/storage/hash_index.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/check.h"

namespace hyperion::storage {

namespace {

inline void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
inline void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

// A new bucket's header: no records, no overflow bucket.
constexpr uint8_t kEmptyHeaderBytes[HashIndex::kHeaderBytes] = {};
constexpr ByteSpan kEmptyHeader(kEmptyHeaderBytes, HashIndex::kHeaderBytes);

// Expected misses answer this one Status, built once and shared by
// refcount, so a probe for an absent key allocates nothing.
const Status& KeyNotInIndex() {
  static const Status kMiss = NotFound("key not in index");
  return kMiss;
}

}  // namespace

Result<HashIndex> HashIndex::Create(mem::ObjectStore* store, uint64_t index_id, uint32_t buckets,
                                    mem::SegmentHints hints) {
  if (buckets == 0) {
    return InvalidArgument("need at least one bucket");
  }
  const uint32_t rounded = std::bit_ceil(buckets);
  HashIndex index(store, index_id, rounded, hints);
  index.next_overflow_id_ = rounded;
  index.chain_len_.assign(rounded, 1);
  index.scratch_.assign(kBucketBytes, 0);
  for (uint32_t b = 0; b < rounded; ++b) {
    RETURN_IF_ERROR(store->CreateWithId(index.BucketSegment(b), kBucketBytes, hints));
    RETURN_IF_ERROR(store->Write(index.BucketSegment(b), 0, kEmptyHeader));
  }
  return index;
}

mem::SegmentId HashIndex::BucketSegment(uint64_t bucket_id) const {
  return mem::SegmentId(0x4A54000000000000ull | index_id_, bucket_id);
}

Result<HashIndex::Scan> HashIndex::ReadBucket(uint64_t bucket_id, ByteSpan key) {
  ++bucket_reads_;
  scratch_.resize(kBucketBytes);
  RETURN_IF_ERROR(store_->ReadInto(BucketSegment(bucket_id), 0,
                                   MutableByteSpan(scratch_.data(), scratch_.size())));
  const ByteSpan raw(scratch_.data(), scratch_.size());
  if (raw.size() < kHeaderBytes) {
    return DataLoss("short hash bucket");
  }
  Scan scan;
  scan.count = GetU32(raw, 0);
  scan.overflow = GetU64(raw, 4);
  if (scan.count > kBucketBytes / 9) {
    return DataLoss("implausible bucket entry count");
  }
  size_t off = kHeaderBytes;
  for (uint32_t i = 0; i < scan.count; ++i) {
    if (off + 4 > raw.size()) {
      return DataLoss("torn hash bucket");
    }
    const uint32_t klen = GetU32(raw, off);
    const size_t key_off = off + 4;
    if (key_off + klen + 4 > raw.size()) {
      return DataLoss("torn hash bucket");
    }
    const uint32_t vlen = GetU32(raw, key_off + klen);
    const size_t value_off = key_off + klen + 4;
    if (value_off + vlen > raw.size()) {
      return DataLoss("torn hash bucket");
    }
    if (!scan.found && klen == key.size() &&
        std::memcmp(raw.data() + key_off, key.data(), klen) == 0) {
      scan.found = true;
      scan.entry_off = off;
      scan.value_off = value_off;
      scan.value_len = vlen;
    }
    off = value_off + vlen;
  }
  scan.end = off;
  return scan;
}

Result<HashIndex::Scan> HashIndex::Walk(uint64_t& bucket_id, ByteSpan key, Room* room,
                                        const Scan* after) {
  Scan scan;
  if (after != nullptr) {
    scan = *after;
  } else {
    ASSIGN_OR_RETURN(scan, ReadBucket(bucket_id, key));
  }
  while (!scan.found) {
    if (room != nullptr && !room->found && scan.end + room->needed <= kBucketBytes) {
      *room = {room->needed, true, bucket_id, scan};
    }
    if (scan.overflow == 0) {
      if (room == nullptr || room->found) {
        break;
      }
      // No bucket has room: link a new, empty one after this last one.
      scan.overflow = next_overflow_id_++;
      RETURN_IF_ERROR(store_->CreateWithId(BucketSegment(scan.overflow), kBucketBytes, hints_));
      RETURN_IF_ERROR(store_->Write(BucketSegment(scan.overflow), 0, kEmptyHeader));
      StoreU64(scratch_.data() + 4, scan.overflow);
      RETURN_IF_ERROR(store_->Write(BucketSegment(bucket_id), 4, ByteSpan(scratch_.data() + 4, 8)));
      const uint64_t root = RootBucket(key);
      CHECK_LT(root, chain_len_.size());
      max_chain_ = std::max(max_chain_, ++chain_len_[root]);
    }
    bucket_id = scan.overflow;
    ASSIGN_OR_RETURN(scan, ReadBucket(bucket_id, key));
  }
  return scan;
}

void HashIndex::EraseRecord(Scan& scan, size_t key_len) {
  const size_t old_len = 8 + key_len + scan.value_len;
  std::memmove(scratch_.data() + scan.entry_off, scratch_.data() + scan.entry_off + old_len,
               scan.end - (scan.entry_off + old_len));
  scan.end -= old_len;
  StoreU32(scratch_.data(), --scan.count);
  --entry_count_;
  used_bytes_ -= old_len;
}

void HashIndex::AppendRecord(Scan& scan, ByteSpan key, ByteSpan value) {
  uint8_t* p = scratch_.data() + scan.end;
  StoreU32(p, static_cast<uint32_t>(key.size()));
  std::memcpy(p + 4, key.data(), key.size());
  StoreU32(p + 4 + key.size(), static_cast<uint32_t>(value.size()));
  std::memcpy(p + 8 + key.size(), value.data(), value.size());
  const size_t len = 8 + key.size() + value.size();
  scan.end += len;
  StoreU32(scratch_.data(), ++scan.count);
  ++entry_count_;
  used_bytes_ += len;
}

Status HashIndex::RewriteBucket(uint64_t bucket_id, const Scan& scan) {
  std::fill(scratch_.begin() + static_cast<ptrdiff_t>(scan.end), scratch_.end(), uint8_t{0});
  return store_->Write(BucketSegment(bucket_id), 0, ByteSpan(scratch_.data(), scratch_.size()));
}

Status HashIndex::Put(ByteSpan key, ByteSpan value) {
  const size_t needed = 8 + key.size() + value.size();
  if (key.empty() || value.size() > kMaxValueLen || kHeaderBytes + needed > kBucketBytes) {
    return InvalidArgument("bad key/value size");
  }
  Room room{.needed = needed};
  uint64_t bucket_id = RootBucket(key);
  ASSIGN_OR_RETURN(Scan scan, Walk(bucket_id, key, &room));
  if (scan.found && scan.value_len == value.size()) {
    // Same-size overwrite: only the value bytes change on media.
    return store_->Write(BucketSegment(bucket_id), scan.value_off, value);
  }
  if (scan.found) {
    // Size-changing overwrite: the bucket is rewritten without the old
    // record, and with the new one if that fits there now. If not, the
    // record goes where a new key would, and the walk goes on for room.
    EraseRecord(scan, key.size());
    if (scan.end + needed <= kBucketBytes) {
      AppendRecord(scan, key, value);
      return RewriteBucket(bucket_id, scan);
    }
    RETURN_IF_ERROR(RewriteBucket(bucket_id, scan));
    scan.found = false;
    ASSIGN_OR_RETURN(scan, Walk(bucket_id, key, &room, &scan));
    if (scan.found) {
      return DataLoss("hash chain holds a key twice");
    }
  }
  // Append to the first bucket with room. scratch_ stages the record, and
  // only its bytes and the bucket's new count are written.
  const size_t at = room.scan.end;
  AppendRecord(room.scan, key, value);
  RETURN_IF_ERROR(store_->Write(BucketSegment(room.bucket_id), at,
                                ByteSpan(scratch_.data() + at, needed)));
  return store_->Write(BucketSegment(room.bucket_id), 0, ByteSpan(scratch_.data(), 4));
}

Result<Bytes> HashIndex::Get(ByteSpan key) {
  uint64_t bucket_id = RootBucket(key);
  ASSIGN_OR_RETURN(const Scan scan, Walk(bucket_id, key));
  if (!scan.found) {
    return KeyNotInIndex();
  }
  return Bytes(scratch_.begin() + static_cast<ptrdiff_t>(scan.value_off),
               scratch_.begin() + static_cast<ptrdiff_t>(scan.value_off + scan.value_len));
}

Status HashIndex::Delete(ByteSpan key) {
  uint64_t bucket_id = RootBucket(key);
  ASSIGN_OR_RETURN(Scan scan, Walk(bucket_id, key));
  if (!scan.found) {
    return KeyNotInIndex();
  }
  EraseRecord(scan, key.size());
  return RewriteBucket(bucket_id, scan);
}

HashIndexStats HashIndex::Stats() const {
  HashIndexStats stats;
  stats.entries = entry_count_;
  stats.root_buckets = bucket_count_;
  stats.overflow_buckets = next_overflow_id_ - bucket_count_;
  stats.max_chain = max_chain_;
  uint64_t total_chain = 0;
  for (const uint32_t len : chain_len_) {
    total_chain += len;
  }
  stats.mean_chain =
      chain_len_.empty() ? 1.0 : static_cast<double>(total_chain) / chain_len_.size();
  const uint64_t total_buckets = bucket_count_ + stats.overflow_buckets;
  stats.occupancy = static_cast<double>(used_bytes_) /
                    (static_cast<double>(total_buckets) * kBucketBytes);
  return stats;
}

}  // namespace hyperion::storage
