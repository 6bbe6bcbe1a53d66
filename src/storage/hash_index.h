// Persistent hash index over the single-level store.
//
// The third "familiar reusable core storage abstraction" of §4 (trees, hash
// tables, graphs). Fixed directory of buckets, each bucket one segment;
// collisions chain through overflow buckets. O(1 + chain) segment reads per
// lookup — the contrast with tree walks in the pointer-chasing experiment.
//
// Get, Put and Delete share one walk of a chain and work on the serialized
// bucket image in place: the walk scans the raw 4 KiB image with a cursor
// (no per-entry deserialization), an insert appends the one new record plus
// a 4-byte header update, and a same-size overwrite rewrites only the value
// bytes. Only deletes and size-changing overwrites rebuild a bucket. That
// keeps per-op cost independent of bucket fill, which is what lets the XDP
// flow table hold millions of entries (PR 8) without the index becoming the
// bottleneck of the simulation itself. Put reads the whole chain before it
// appends, so a key is stored once.

#ifndef HYPERION_SRC_STORAGE_HASH_INDEX_H_
#define HYPERION_SRC_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/mem/object_store.h"

namespace hyperion::storage {

// Directory health under a fixed bucket count: the flow table uses this to
// know when chains degrade (ISSUE 8 satellite). Chain length counts buckets
// (root included), so an unchained directory reports max == mean == 1.
struct HashIndexStats {
  uint64_t entries = 0;
  uint32_t root_buckets = 0;
  uint64_t overflow_buckets = 0;
  uint32_t max_chain = 1;
  double mean_chain = 1.0;
  // Payload bytes (records, headers excluded) over total bucket capacity.
  double occupancy = 0.0;
};

class HashIndex {
 public:
  static constexpr uint32_t kBucketBytes = 4096;
  static constexpr uint32_t kMaxValueLen = 256;
  static constexpr uint32_t kHeaderBytes = 12;  // [count u32][overflow u64]

  // Creates an index with `buckets` top-level buckets (rounded to a power
  // of two).
  static Result<HashIndex> Create(mem::ObjectStore* store, uint64_t index_id, uint32_t buckets,
                                  mem::SegmentHints hints = {.durable = true});

  Status Put(ByteSpan key, ByteSpan value);
  Result<Bytes> Get(ByteSpan key);
  Status Delete(ByteSpan key);

  uint64_t EntryCount() const { return entry_count_; }
  uint64_t BucketReads() const { return bucket_reads_; }
  void ResetStats() { bucket_reads_ = 0; }

  HashIndexStats Stats() const;

 private:
  HashIndex(mem::ObjectStore* store, uint64_t index_id, uint32_t buckets,
            mem::SegmentHints hints)
      : store_(store), index_id_(index_id), bucket_count_(buckets), hints_(hints) {}

  // One bucket image in scratch_, scanned in place for a key.
  struct Scan {
    uint32_t count = 0;
    uint64_t overflow = 0;
    bool found = false;
    size_t entry_off = 0;   // matched record offset (valid when found)
    size_t value_off = 0;   // matched value bytes offset (valid when found)
    uint32_t value_len = 0; // matched value length (valid when found)
    size_t end = 0;         // one past the last record
  };

  // Put's search for the first bucket on its chain with `needed` bytes free.
  struct Room {
    size_t needed = 0;
    bool found = false;
    uint64_t bucket_id = 0;
    Scan scan{};
  };

  mem::SegmentId BucketSegment(uint64_t bucket_id) const;
  uint64_t RootBucket(ByteSpan key) const { return Fnv1a64(key) & (bucket_count_ - 1); }
  // Reads the bucket into the reusable scratch buffer and scans it for `key`.
  Result<Scan> ReadBucket(uint64_t bucket_id, ByteSpan key);
  // The chain walk: reads buckets from `bucket_id` on (on after it, when
  // `after` scans its image in scratch_) and stops, with `bucket_id` there,
  // at the one holding `key` or at the chain's last. With `room` it also
  // finds room, linking and reading a new last bucket when none has any.
  Result<Scan> Walk(uint64_t& bucket_id, ByteSpan key, Room* room = nullptr,
                    const Scan* after = nullptr);
  // Edit the image in scratch_ that `scan` describes, and write it back.
  void EraseRecord(Scan& scan, size_t key_len);
  void AppendRecord(Scan& scan, ByteSpan key, ByteSpan value);
  Status RewriteBucket(uint64_t bucket_id, const Scan& scan);

  mem::ObjectStore* store_;
  uint64_t index_id_;
  uint32_t bucket_count_;
  mem::SegmentHints hints_;
  uint64_t next_overflow_id_ = 0;  // overflow ids live above bucket_count_
  uint64_t entry_count_ = 0;
  uint64_t bucket_reads_ = 0;
  uint64_t used_bytes_ = 0;  // record bytes across all buckets
  uint32_t max_chain_ = 1;
  std::vector<uint32_t> chain_len_;  // [root bucket] -> buckets in chain
  Bytes scratch_;                    // reused bucket image, kBucketBytes
};

}  // namespace hyperion::storage

#endif  // HYPERION_SRC_STORAGE_HASH_INDEX_H_
