#include "src/ebpf/maps.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::ebpf {

namespace {

// A new hash map's index: 16 cells hold 8 keys before the first doubling.
constexpr size_t kMinCells = 16;

}  // namespace

Map::Map(MapSpec spec) : spec_(std::move(spec)) {
  CHECK_GT(spec_.key_size, 0u);
  CHECK_GT(spec_.value_size, 0u);
  CHECK_GT(spec_.max_entries, 0u);
  if (spec_.type == MapType::kArray) {
    CHECK_EQ(spec_.key_size, 4u) << "array map keys are u32 indexes";
    // Array maps are fully pre-allocated and every index always exists.
    values_.resize(static_cast<size_t>(spec_.max_entries) * spec_.value_size, 0);
    next_slot_ = spec_.max_entries;
  } else {
    index_ = ProbeTable(kMinCells);
  }
}

uint32_t Map::EntryCount() const {
  return spec_.type == MapType::kArray ? spec_.max_entries : entries_;
}

Result<uint32_t> Map::Update(ByteSpan key, ByteSpan value) {
  if (key.size() != spec_.key_size) {
    return InvalidArgument("key size mismatch");
  }
  if (value.size() != spec_.value_size) {
    return InvalidArgument("value size mismatch");
  }
  const uint32_t slot = Put(key.data(), value.data());
  if (slot == kNoHandle) {
    return spec_.type == MapType::kArray ? OutOfRange("array index out of range")
                                         : ResourceExhausted("map full");
  }
  return slot;
}

uint32_t Map::Put(const uint8_t* key, const uint8_t* value) {
  if (spec_.type == MapType::kArray) {
    const uint32_t idx = GetU32(ByteSpan(key, 4), 0);
    if (idx >= spec_.max_entries) {
      return kNoHandle;
    }
    std::copy_n(value, spec_.value_size,
                values_.begin() + static_cast<ptrdiff_t>(idx) * spec_.value_size);
    return idx;
  }
  const size_t cell = FindCell(key);
  uint32_t slot;
  if (index_[cell] != 0) {
    slot = index_[cell] - 1;
  } else {
    if (entries_ >= spec_.max_entries) {
      return kNoHandle;
    }
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = next_slot_++;
      values_.resize(static_cast<size_t>(next_slot_) * spec_.value_size, 0);
      keys_.resize(static_cast<size_t>(next_slot_) * spec_.key_size);
    }
    std::copy_n(key, spec_.key_size,
                keys_.begin() + static_cast<ptrdiff_t>(slot) * spec_.key_size);
    index_[cell] = slot + 1;
    if (2 * size_t{++entries_} > index_.cells()) {
      index_.Grow([this](uint32_t i) { return SlotHash(i); });
    }
  }
  std::copy_n(value, spec_.value_size,
              values_.begin() + static_cast<ptrdiff_t>(slot) * spec_.value_size);
  return slot;
}

Status Map::Delete(ByteSpan key) {
  if (key.size() != spec_.key_size) {
    return InvalidArgument("key size mismatch");
  }
  if (spec_.type == MapType::kArray) {
    return InvalidArgument("array map entries cannot be deleted");
  }
  const size_t hole = FindCell(key.data());
  if (index_[hole] == 0) {
    return NotFound("no such key");
  }
  free_slots_.push_back(index_[hole] - 1);
  --entries_;
  index_.Erase(hole, [this](uint32_t i) { return SlotHash(i); });
  return Status::Ok();
}

Result<Bytes> Map::ValueByHandle(uint32_t handle) const {
  if (!HasSlot(handle)) {
    return OutOfRange("bad map handle");
  }
  const auto* begin = values_.data() + size_t{handle} * spec_.value_size;
  return Bytes(begin, begin + spec_.value_size);
}

Result<Bytes> Map::Lookup(ByteSpan key) const {
  if (key.size() != spec_.key_size) {
    return InvalidArgument("key size mismatch");
  }
  const std::optional<uint32_t> handle = LookupHandle(key);
  if (!handle) {
    return NotFound(spec_.type == MapType::kArray ? "array index out of range" : "no such key");
  }
  return ValueByHandle(*handle);
}

uint32_t MapRegistry::Create(MapSpec spec) {
  maps_.push_back(std::make_unique<Map>(std::move(spec)));
  return static_cast<uint32_t>(maps_.size() - 1);
}

}  // namespace hyperion::ebpf
