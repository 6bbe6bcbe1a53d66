#include "src/storage/corfu.h"

#include "src/common/check.h"

namespace hyperion::storage {

namespace {
constexpr uint8_t kEntryData = 1;
constexpr uint8_t kEntryHole = 2;
// Meta segment payload: [ceiling u64][trim u64].
constexpr uint64_t kMetaBytes = 16;
}  // namespace

mem::SegmentId CorfuLog::EntrySegment(uint64_t position) const {
  return mem::SegmentId(0xC0F0000000000000ull | log_id_, position);
}

mem::SegmentId CorfuLog::MetaSegment() const {
  // Distinct id space from entries so no position can collide with it.
  return mem::SegmentId(0xC0F1000000000000ull | log_id_, 0);
}

CorfuLog::CorfuLog(mem::ObjectStore* store, uint64_t log_id, uint32_t stripe_units)
    : store_(store), log_id_(log_id), stripe_units_(stripe_units) {
  // Sequencer recovery: a log reopened over the same store resumes from the
  // persisted ceiling. Positions in [true tail, ceiling) were reserved but
  // possibly never written — they surface as holes, never as re-issued
  // positions, so write-once survives the reopen.
  auto meta = store_->Read(MetaSegment(), 0, kMetaBytes);
  if (meta.ok()) {
    ByteReader reader(ByteSpan(meta->data(), meta->size()));
    const uint64_t ceiling = reader.ReadU64();
    const uint64_t trim = reader.ReadU64();
    if (reader.Ok()) {
      ceiling_ = ceiling;
      tail_ = ceiling;
      trim_point_ = trim;
    }
  }
}

void CorfuLog::PersistMeta() {
  Bytes framed;
  PutU64(framed, ceiling_);
  PutU64(framed, trim_point_);
  Status created = store_->CreateWithId(MetaSegment(), kMetaBytes, {.durable = true});
  CHECK(created.ok() || created.code() == StatusCode::kAlreadyExists);
  CHECK_OK(store_->Write(MetaSegment(), 0, ByteSpan(framed.data(), framed.size())));
}

void CorfuLog::CoverPosition(uint64_t position) {
  if (position < ceiling_) {
    return;
  }
  // Round the ceiling up to the next chunk boundary past `position` so the
  // meta write amortises over kReserveChunk positions.
  ceiling_ = ((position / kReserveChunk) + 1) * kReserveChunk;
  PersistMeta();
}

Result<uint64_t> CorfuLog::Reserve() {
  if (tail_ > kMaxPosition) {
    return OutOfRange("log positions exhausted");
  }
  const uint64_t position = tail_++;
  CoverPosition(position);
  return position;
}

Status CorfuLog::AdvanceTail(uint64_t tail) {
  if (tail > kMaxPosition + 1) {
    return OutOfRange("tail past the log's address space");
  }
  if (tail > tail_) {
    tail_ = tail;
    CoverPosition(tail - 1);
  }
  return Status::Ok();
}

Status CorfuLog::WriteAt(uint64_t position, ByteSpan data) {
  if (position < trim_point_) {
    return OutOfRange("position trimmed");
  }
  if (position > kMaxPosition) {
    return OutOfRange("position past the log's address space");
  }
  if (data.size() > kMaxEntryLen) {
    return InvalidArgument("entry exceeds kMaxEntryLen");
  }
  // A replica can be handed a position reserved at a remote sequencer:
  // accept it and advance the local tail (and the durable ceiling, so a
  // reopened replica recovers it too).
  if (position >= tail_) {
    tail_ = position + 1;
    CoverPosition(position);
  }
  // Write-once: segment creation is the atomic claim on the position.
  Bytes framed;
  framed.push_back(kEntryData);
  PutU32(framed, static_cast<uint32_t>(data.size()));
  PutBytes(framed, ByteSpan(data.data(), data.size()));
  PutU32(framed, Crc32c(data));
  Status created = store_->CreateWithId(EntrySegment(position), framed.size(),
                                        {.durable = true});
  if (!created.ok()) {
    if (created.code() == StatusCode::kAlreadyExists) {
      return AlreadyExists("position already written (write-once)");
    }
    return created;
  }
  return store_->Write(EntrySegment(position), 0, ByteSpan(framed.data(), framed.size()));
}

Result<Bytes> CorfuLog::Read(uint64_t position) {
  if (position >= tail_) {
    return OutOfRange("read past log tail");
  }
  if (position < trim_point_) {
    return OutOfRange("position trimmed");
  }
  auto desc = store_->Describe(EntrySegment(position));
  if (!desc.ok()) {
    return NotFound("hole: position reserved but unwritten");
  }
  ASSIGN_OR_RETURN(Bytes framed, store_->Read(EntrySegment(position), 0, desc->size));
  ByteReader reader(ByteSpan(framed.data(), framed.size()));
  const uint8_t kind = reader.ReadU8();
  if (kind == kEntryHole) {
    return DataLoss("position was hole-filled");
  }
  if (kind != kEntryData) {
    return DataLoss("corrupt log entry header");
  }
  const uint32_t len = reader.ReadU32();
  Bytes data = reader.ReadBytes(len);
  const uint32_t stored_crc = reader.ReadU32();
  if (!reader.Ok()) {
    return DataLoss("truncated log entry");
  }
  if (Crc32c(ByteSpan(data.data(), data.size())) != stored_crc) {
    return DataLoss("log entry checksum mismatch");
  }
  return data;
}

Status CorfuLog::Fill(uint64_t position) {
  if (position < trim_point_) {
    return OutOfRange("position trimmed");
  }
  if (position > kMaxPosition) {
    return OutOfRange("position past the log's address space");
  }
  if (position >= tail_) {
    tail_ = position + 1;
    CoverPosition(position);
  }
  Bytes framed;
  framed.push_back(kEntryHole);
  Status created =
      store_->CreateWithId(EntrySegment(position), framed.size(), {.durable = true});
  if (!created.ok()) {
    if (created.code() == StatusCode::kAlreadyExists) {
      return AlreadyExists("position already written");
    }
    return created;
  }
  return store_->Write(EntrySegment(position), 0, ByteSpan(framed.data(), framed.size()));
}

Result<uint64_t> CorfuLog::Append(ByteSpan data) {
  ASSIGN_OR_RETURN(const uint64_t position, Reserve());
  RETURN_IF_ERROR(WriteAt(position, data));
  return position;
}

Status CorfuLog::Trim(uint64_t prefix) {
  if (prefix > tail_) {
    return OutOfRange("trim past tail");
  }
  if (prefix <= trim_point_) {
    return Status::Ok();
  }
  for (uint64_t p = trim_point_; p < prefix; ++p) {
    // Unwritten holes inside the trimmed prefix have no segment; ignore.
    Status st = store_->Delete(EntrySegment(p));
    if (!st.ok() && st.code() != StatusCode::kNotFound) {
      return st;
    }
  }
  trim_point_ = prefix;
  PersistMeta();
  return Status::Ok();
}

}  // namespace hyperion::storage
