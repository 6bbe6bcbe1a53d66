// Single-level object store (paper §2.1).
//
// The ObjectStore is the programming surface of Hyperion's unified
// storage-memory model: 128-bit segment ids name objects wherever they live
// (FPGA DRAM, HBM, or NVMe flash). Total addressable capacity is the sum of
// all three. Placement follows creation hints — performance-critical
// objects go to HBM, durable ones to NVMe — with graceful spill when a tier
// is full. A segment stays where it was placed until it is deleted.
//
// Every access pays exactly one segment-table translation (object-granular)
// plus the media cost of the tier — no page tables, no TLBs, no pinning, no
// host OS. Crash recovery reloads the persisted segment table and drops
// ephemeral (DRAM/HBM) segments, keeping durable ones.

#ifndef HYPERION_SRC_MEM_OBJECT_STORE_H_
#define HYPERION_SRC_MEM_OBJECT_STORE_H_

#include <cstdint>
#include <memory>

#include "src/common/result.h"
#include "src/mem/allocator.h"
#include "src/mem/dram.h"
#include "src/mem/segment_table.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace hyperion::mem {

struct ObjectStoreConfig {
  uint64_t dram_bytes = 256ull << 20;
  uint64_t hbm_bytes = 64ull << 20;
  uint32_t nvme_nsid = 1;
};

class ObjectStore {
 public:
  ObjectStore(sim::Engine* engine, nvme::Controller* nvme, ObjectStoreConfig config);

  // Allocates a segment of `size` bytes under the caller's id, placed per
  // `hints`. Every layer derives its segment ids, so the store never picks
  // one.
  Status CreateWithId(SegmentId id, uint64_t size, SegmentHints hints = SegmentHints());

  Status Delete(SegmentId id);

  // A zero-length write answers OK on every tier, and on flash issues no
  // NVMe command.
  Status Write(SegmentId id, uint64_t offset, ByteSpan data);
  Result<Bytes> Read(SegmentId id, uint64_t offset, uint64_t length);
  // Read into a caller-owned buffer (`out.size()` bytes at `offset`),
  // allocation-free on every tier: a flash read of whole LBAs lands in
  // `out` itself, and a partial one in a staging buffer the store reuses.
  // That is what lets per-packet index probes and B+ tree walks run without
  // a heap allocation per access. A zero-length read answers OK with no
  // media access on every tier.
  Status ReadInto(SegmentId id, uint64_t offset, MutableByteSpan out);

  Result<Segment> Describe(SegmentId id) const;
  size_t SegmentCount() const { return table_.size(); }

  // Persists the segment table snapshot to the boot area.
  Status Checkpoint();

  // Simulates power-cycle recovery: reloads the table from the boot area,
  // drops ephemeral segments, and rebuilds NVMe allocator state. Returns
  // the number of segments recovered.
  Result<uint64_t> Recover();

  const sim::Counters& counters() const { return counters_; }

 private:
  Result<Location> PickLocation(uint64_t size, const SegmentHints& hints);
  Result<uint64_t> AllocateIn(Location loc, uint64_t size);
  Status FreeIn(Location loc, uint64_t base, uint64_t size);

  // The one segment-table probe a data access pays: kLookupCost of sim
  // time and a `translations` tick.
  Result<Segment> Translate(SegmentId id);
  // The tier's read of a translated, bounds-checked range.
  Status ReadAt(const Segment& seg, uint64_t offset, MutableByteSpan out);
  Status WriteNvme(const Segment& seg, uint64_t offset, ByteSpan data);
  Status ReadNvme(const Segment& seg, uint64_t offset, MutableByteSpan out);

  sim::Engine* engine_;
  nvme::Controller* nvme_;
  ObjectStoreConfig config_;

  DramDevice dram_;
  DramDevice hbm_;
  RangeAllocator dram_alloc_;
  RangeAllocator hbm_alloc_;
  RangeAllocator nvme_alloc_;  // LBA-granular, excludes the boot area

  SegmentTable table_;
  // The covering LBAs of a flash access that is not whole LBAs (a partial
  // read, or a write's read-modify-write), reused across accesses.
  Bytes staging_;
  sim::Counters counters_;
  // Interned at the first translation, so an idle store's Snapshot() stays
  // empty.
  static constexpr sim::Counters::Handle kUnresolved = ~sim::Counters::Handle{0};
  sim::Counters::Handle h_translations_ = kUnresolved;
};

}  // namespace hyperion::mem

#endif  // HYPERION_SRC_MEM_OBJECT_STORE_H_
