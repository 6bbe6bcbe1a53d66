#include "src/mem/object_store.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::mem {

namespace {
// LBAs reserved at the start of the namespace for the segment-table
// snapshot (the "pre-selected control/boot NVMe area").
constexpr uint64_t kBootAreaLbas = 256;

uint64_t LbasFor(uint64_t bytes) { return (bytes + nvme::kLbaSize - 1) / nvme::kLbaSize; }
}  // namespace

ObjectStore::ObjectStore(sim::Engine* engine, nvme::Controller* nvme, ObjectStoreConfig config)
    : engine_(engine),
      nvme_(nvme),
      config_(config),
      dram_(engine, config.dram_bytes),
      hbm_(engine, config.hbm_bytes, HbmParams()),
      dram_alloc_(config.dram_bytes),
      hbm_alloc_(config.hbm_bytes),
      nvme_alloc_(0) {
  auto capacity = nvme->NamespaceCapacity(config.nvme_nsid);
  CHECK(capacity.ok()) << "object store requires a valid NVMe namespace";
  CHECK_GT(*capacity, kBootAreaLbas);
  // LBA space after the boot area is the single-level store's flash tier.
  nvme_alloc_ = RangeAllocator(*capacity - kBootAreaLbas);
}

Result<Location> ObjectStore::PickLocation(uint64_t size, const SegmentHints& hints) {
  if (hints.durable) {
    // Durable segments must be NVMe-backed to survive power-off.
    if (nvme_alloc_.FreeBytes() * nvme::kLbaSize >= size) {
      return Location::kNvme;
    }
    return ResourceExhausted("flash tier full for durable segment");
  }
  if (hints.performance_critical && hbm_alloc_.LargestFreeRange() >= size) {
    return Location::kHbm;
  }
  if (dram_alloc_.LargestFreeRange() >= size) {
    return Location::kDram;
  }
  if (hbm_alloc_.LargestFreeRange() >= size) {
    return Location::kHbm;
  }
  // Spill: NVMe as "a large capacity location" for ephemeral segments.
  if (nvme_alloc_.LargestFreeRange() >= LbasFor(size)) {
    return Location::kNvme;
  }
  return ResourceExhausted("object store full");
}

Result<uint64_t> ObjectStore::AllocateIn(Location loc, uint64_t size) {
  switch (loc) {
    case Location::kDram:
      return dram_alloc_.Allocate(size);
    case Location::kHbm:
      return hbm_alloc_.Allocate(size);
    case Location::kNvme: {
      ASSIGN_OR_RETURN(uint64_t lba, nvme_alloc_.Allocate(LbasFor(size)));
      return lba + kBootAreaLbas;  // absolute LBA
    }
  }
  return Internal("bad location");
}

Status ObjectStore::FreeIn(Location loc, uint64_t base, uint64_t size) {
  switch (loc) {
    case Location::kDram:
      return dram_alloc_.Free(base, size);
    case Location::kHbm:
      return hbm_alloc_.Free(base, size);
    case Location::kNvme:
      return nvme_alloc_.Free(base - kBootAreaLbas, LbasFor(size));
  }
  return Internal("bad location");
}

Status ObjectStore::CreateWithId(SegmentId id, uint64_t size, SegmentHints hints) {
  if (size == 0) {
    return InvalidArgument("zero-size segment");
  }
  if (table_.Find(id) != nullptr) {
    return AlreadyExists("segment id in use");
  }
  ASSIGN_OR_RETURN(Location loc, PickLocation(size, hints));
  ASSIGN_OR_RETURN(uint64_t base, AllocateIn(loc, size));
  Segment seg;
  seg.id = id;
  seg.size = size;
  seg.location = loc;
  seg.base = base;
  seg.durable = hints.durable;
  RETURN_IF_ERROR(table_.Insert(seg));
  counters_.Increment("segments_created");
  return Status::Ok();
}

Status ObjectStore::Delete(SegmentId id) {
  ASSIGN_OR_RETURN(Segment seg, table_.Erase(id));
  return FreeIn(seg.location, seg.base, seg.size);
}

Result<Segment> ObjectStore::Describe(SegmentId id) const { return table_.Lookup(id); }

Result<Segment> ObjectStore::Translate(SegmentId id) {
  engine_->Advance(SegmentTable::kLookupCost);
  if (h_translations_ == kUnresolved) [[unlikely]] {
    h_translations_ = counters_.Intern("translations");
  }
  counters_.Increment(h_translations_);
  const Segment* seg = table_.Find(id);
  if (seg == nullptr) {
    return NotFound("segment not mapped");
  }
  return *seg;
}

Status ObjectStore::Write(SegmentId id, uint64_t offset, ByteSpan data) {
  ASSIGN_OR_RETURN(Segment seg, Translate(id));
  if (offset > seg.size || data.size() > seg.size - offset) {
    return OutOfRange("write past end of segment");
  }
  switch (seg.location) {
    case Location::kDram:
      return dram_.Write(seg.base + offset, data);
    case Location::kHbm:
      return hbm_.Write(seg.base + offset, data);
    case Location::kNvme:
      return WriteNvme(seg, offset, data);
  }
  return Internal("bad location");
}

Result<Bytes> ObjectStore::Read(SegmentId id, uint64_t offset, uint64_t length) {
  ASSIGN_OR_RETURN(Segment seg, Translate(id));
  if (offset > seg.size || length > seg.size - offset) {
    return OutOfRange("read past end of segment");
  }
  Bytes out(length);
  RETURN_IF_ERROR(ReadAt(seg, offset, MutableByteSpan(out)));
  return out;
}

Status ObjectStore::ReadInto(SegmentId id, uint64_t offset, MutableByteSpan out) {
  ASSIGN_OR_RETURN(Segment seg, Translate(id));
  if (offset > seg.size || out.size() > seg.size - offset) {
    return OutOfRange("read past end of segment");
  }
  return ReadAt(seg, offset, out);
}

Status ObjectStore::ReadAt(const Segment& seg, uint64_t offset, MutableByteSpan out) {
  switch (seg.location) {
    case Location::kDram:
      return dram_.Read(seg.base + offset, out);
    case Location::kHbm:
      return hbm_.Read(seg.base + offset, out);
    case Location::kNvme:
      return ReadNvme(seg, offset, out);
  }
  return Internal("bad location");
}

Status ObjectStore::WriteNvme(const Segment& seg, uint64_t offset, ByteSpan data) {
  if (data.empty()) {
    return Status::Ok();  // as on DRAM: no bytes, no command
  }
  const uint64_t first_lba = seg.base + offset / nvme::kLbaSize;
  const uint64_t head_skew = offset % nvme::kLbaSize;
  if (head_skew == 0 && data.size() % nvme::kLbaSize == 0) {
    return nvme_->Write(config_.nvme_nsid, first_lba, data);
  }
  // Read-modify-write of the covering LBA range, staged in the reused
  // buffer.
  staging_.resize(LbasFor(head_skew + data.size()) * nvme::kLbaSize);
  RETURN_IF_ERROR(nvme_->ReadInto(config_.nvme_nsid, first_lba, MutableByteSpan(staging_)));
  std::copy(data.begin(), data.end(), staging_.begin() + static_cast<ptrdiff_t>(head_skew));
  return nvme_->Write(config_.nvme_nsid, first_lba, ByteSpan(staging_.data(), staging_.size()));
}

Status ObjectStore::ReadNvme(const Segment& seg, uint64_t offset, MutableByteSpan out) {
  if (out.empty()) {
    return Status::Ok();  // as on DRAM: no bytes, no command
  }
  const uint64_t first_lba = seg.base + offset / nvme::kLbaSize;
  const uint64_t head_skew = offset % nvme::kLbaSize;
  if (head_skew == 0 && out.size() % nvme::kLbaSize == 0) {
    // Whole LBAs, as every B+ tree node read is: the caller's memory is
    // the command's destination.
    return nvme_->ReadInto(config_.nvme_nsid, first_lba, out);
  }
  // A partial range reads its covering LBAs into the reused staging buffer
  // and copies the range out.
  staging_.resize(LbasFor(head_skew + out.size()) * nvme::kLbaSize);
  RETURN_IF_ERROR(nvme_->ReadInto(config_.nvme_nsid, first_lba, MutableByteSpan(staging_)));
  std::copy_n(staging_.begin() + static_cast<ptrdiff_t>(head_skew), out.size(), out.begin());
  return Status::Ok();
}

Status ObjectStore::Checkpoint() {
  counters_.Increment("checkpoints");
  return table_.PersistTo(nvme_, config_.nvme_nsid, kBootAreaLbas);
}

Result<uint64_t> ObjectStore::Recover() {
  ASSIGN_OR_RETURN(SegmentTable loaded,
                   SegmentTable::LoadFrom(nvme_, config_.nvme_nsid, kBootAreaLbas));
  // Reset allocator state; DRAM/HBM contents did not survive the power
  // cycle, so only NVMe-resident segments are retained.
  dram_alloc_ = RangeAllocator(config_.dram_bytes);
  hbm_alloc_ = RangeAllocator(config_.hbm_bytes);
  nvme_alloc_ = RangeAllocator(nvme_alloc_.capacity());
  table_ = SegmentTable();
  uint64_t recovered = 0;
  for (const Segment& seg : loaded.Entries()) {
    if (seg.location != Location::kNvme) {
      continue;  // ephemeral segment: data is gone
    }
    RETURN_IF_ERROR(
        nvme_alloc_.Reserve(seg.base - kBootAreaLbas, LbasFor(seg.size)));
    RETURN_IF_ERROR(table_.Insert(seg));
    ++recovered;
  }
  counters_.Increment("recoveries");
  return recovered;
}

}  // namespace hyperion::mem
