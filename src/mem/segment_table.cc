#include "src/mem/segment_table.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace hyperion::mem {

namespace {
constexpr uint32_t kMagic = 0x53454754;  // "SEGT"
constexpr uint32_t kVersion = 1;
constexpr size_t kEntryBytes = 16 + 8 + 1 + 8 + 1;  // id + size + loc + base + durable
// A new table's index: 16 cells hold 4 segments before the first doubling.
constexpr size_t kMinCells = 16;
}  // namespace

SegmentTable::SegmentTable() : index_(kMinCells) {}

size_t SegmentTable::FindCell(SegmentId id) const {
  return index_.Find(std::hash<SegmentId>{}(id),
                     [&](uint32_t slot) { return slots_[slot].id == id; });
}

Status SegmentTable::Insert(const Segment& segment) {
  if (segment.size == 0) {
    return InvalidArgument("zero-size segment");
  }
  const size_t cell = FindCell(segment.id);
  if (index_[cell] != 0) {
    return AlreadyExists("segment id already mapped");
  }
  slots_.push_back(segment);
  index_[cell] = static_cast<uint32_t>(slots_.size());
  if (4 * slots_.size() > index_.cells()) {
    index_.Grow([this](uint32_t i) { return SlotHash(i); });
  }
  return Status::Ok();
}

Result<Segment> SegmentTable::Erase(SegmentId id) {
  const size_t hole = FindCell(id);
  if (index_[hole] == 0) {
    return NotFound("segment not mapped");
  }
  const uint32_t slot = index_[hole] - 1;
  const Segment erased = slots_[slot];
  index_.Erase(hole, [this](uint32_t i) { return SlotHash(i); });
  // Keep the slots dense: the last entry takes the erased one's slot.
  if (const uint32_t last = static_cast<uint32_t>(slots_.size() - 1); slot != last) {
    index_[FindCell(slots_[last].id)] = slot + 1;
    slots_[slot] = slots_[last];
  }
  slots_.pop_back();
  return erased;
}

Result<Segment> SegmentTable::Lookup(SegmentId id) const {
  const uint32_t cell = index_[FindCell(id)];
  if (cell == 0) {
    return NotFound("segment not mapped");
  }
  return slots_[cell - 1];
}

const Segment* SegmentTable::Find(SegmentId id) const {
  const uint32_t cell = index_[FindCell(id)];
  return cell == 0 ? nullptr : &slots_[cell - 1];
}

std::vector<Segment> SegmentTable::Entries() const {
  std::vector<Segment> out = slots_;
  std::sort(out.begin(), out.end(),
            [](const Segment& a, const Segment& b) { return a.id < b.id; });
  return out;
}

Bytes SegmentTable::Serialize() const {
  Bytes out;
  PutU32(out, kMagic);
  PutU32(out, kVersion);
  const auto entries = Entries();
  PutU64(out, entries.size());
  for (const Segment& seg : entries) {
    PutU64(out, seg.id.hi);
    PutU64(out, seg.id.lo);
    PutU64(out, seg.size);
    out.push_back(static_cast<uint8_t>(seg.location));
    PutU64(out, seg.base);
    out.push_back(seg.durable ? 1 : 0);
  }
  PutU32(out, Crc32c(ByteSpan(out.data(), out.size())));
  return out;
}

Result<SegmentTable> SegmentTable::Deserialize(ByteSpan data) {
  if (data.size() < 20) {
    return DataLoss("segment table snapshot truncated");
  }
  const size_t body = data.size() - 4;
  const uint32_t stored_crc = GetU32(data, body);
  if (Crc32c(data.subspan(0, body)) != stored_crc) {
    return DataLoss("segment table snapshot checksum mismatch");
  }
  ByteReader reader(data.subspan(0, body));
  if (reader.ReadU32() != kMagic) {
    return DataLoss("bad segment table magic");
  }
  if (reader.ReadU32() != kVersion) {
    return Unimplemented("unknown segment table version");
  }
  // Divide rather than multiply: a count off flash may be near 2^64.
  const uint64_t count = reader.ReadU64();
  if (count > reader.remaining() / kEntryBytes) {
    return DataLoss("segment table snapshot truncated");
  }
  SegmentTable table;
  for (uint64_t i = 0; i < count; ++i) {
    Segment seg;
    seg.id.hi = reader.ReadU64();
    seg.id.lo = reader.ReadU64();
    seg.size = reader.ReadU64();
    const uint8_t location = reader.ReadU8();
    seg.location = static_cast<Location>(location);
    seg.base = reader.ReadU64();
    seg.durable = reader.ReadU8() != 0;
    if (!reader.Ok()) {
      return DataLoss("segment table snapshot truncated");
    }
    if (location > static_cast<uint8_t>(Location::kNvme)) {
      return DataLoss("bad segment location");
    }
    RETURN_IF_ERROR(table.Insert(seg));
  }
  return table;
}

Status SegmentTable::PersistTo(nvme::Controller* controller, uint32_t nsid,
                               uint64_t boot_area_lbas) const {
  Bytes snapshot = Serialize();
  // Length prefix so Load knows how much of the padded area is real.
  Bytes framed;
  PutU64(framed, snapshot.size());
  PutBytes(framed, ByteSpan(snapshot.data(), snapshot.size()));
  const uint64_t lbas_needed = (framed.size() + nvme::kLbaSize - 1) / nvme::kLbaSize;
  if (lbas_needed > boot_area_lbas) {
    return ResourceExhausted("segment table exceeds boot area");
  }
  framed.resize(lbas_needed * nvme::kLbaSize, 0);
  RETURN_IF_ERROR(controller->Write(nsid, 0, ByteSpan(framed.data(), framed.size())));
  return controller->Flush(nsid);
}

Result<SegmentTable> SegmentTable::LoadFrom(nvme::Controller* controller, uint32_t nsid,
                                            uint64_t boot_area_lbas) {
  ASSIGN_OR_RETURN(Bytes first, controller->Read(nsid, 0, 1));
  const uint64_t length = GetU64(first, 0);
  if (length == 0) {
    return NotFound("no segment table snapshot present");
  }
  // The length comes off flash: bound it by the boot area before adding
  // the 8-byte prefix, so a value near 2^64 cannot wrap the sum.
  if (boot_area_lbas == 0 || length > boot_area_lbas * nvme::kLbaSize - 8) {
    return DataLoss("snapshot length exceeds boot area");
  }
  const uint64_t lbas = (length + 8 + nvme::kLbaSize - 1) / nvme::kLbaSize;
  ASSIGN_OR_RETURN(Bytes all, controller->Read(nsid, 0, static_cast<uint32_t>(lbas)));
  return Deserialize(ByteSpan(all.data() + 8, length));
}

}  // namespace hyperion::mem
