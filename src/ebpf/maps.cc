#include "src/ebpf/maps.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::ebpf {

namespace {

std::string_view KeyView(ByteSpan key) {
  return {reinterpret_cast<const char*>(key.data()), key.size()};
}

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
  }
}

uint32_t Map::EntryCount() const {
  if (spec_.type == MapType::kArray) {
    return spec_.max_entries;
  }
  return static_cast<uint32_t>(index_.size());
}

Result<uint32_t> Map::LookupHandle(ByteSpan key) const {
  if (key.size() != spec_.key_size) {
    return InvalidArgument("key size mismatch");
  }
  if (spec_.type == MapType::kArray) {
    const uint32_t idx = GetU32(key, 0);
    if (idx >= spec_.max_entries) {
      return NotFound("array index out of range");
    }
    return idx;
  }
  auto it = index_.find(KeyView(key));
  if (it == index_.end()) {
    return NotFound("no such key");
  }
  return it->second;
}

Result<uint32_t> Map::Update(ByteSpan key, ByteSpan value) {
  if (key.size() != spec_.key_size) {
    return InvalidArgument("key size mismatch");
  }
  if (value.size() != spec_.value_size) {
    return InvalidArgument("value size mismatch");
  }
  if (spec_.type == MapType::kArray) {
    const uint32_t idx = GetU32(key, 0);
    if (idx >= spec_.max_entries) {
      return OutOfRange("array index out of range");
    }
    std::copy(value.begin(), value.end(),
              values_.begin() + static_cast<ptrdiff_t>(idx) * spec_.value_size);
    return idx;
  }
  auto it = index_.find(KeyView(key));
  uint32_t slot;
  if (it != index_.end()) {
    slot = it->second;
  } else {
    if (index_.size() >= spec_.max_entries) {
      return ResourceExhausted("map full");
    }
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = next_slot_++;
      values_.resize(static_cast<size_t>(next_slot_) * spec_.value_size, 0);
    }
    index_.emplace(KeyView(key), slot);
  }
  std::copy(value.begin(), value.end(),
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
  auto it = index_.find(KeyView(key));
  if (it == index_.end()) {
    return NotFound("no such key");
  }
  free_slots_.push_back(it->second);
  index_.erase(it);
  return Status::Ok();
}

Result<Bytes> Map::ValueByHandle(uint32_t handle) const {
  if (static_cast<size_t>(handle + 1) * spec_.value_size > values_.size()) {
    return OutOfRange("bad map handle");
  }
  const auto* begin = values_.data() + static_cast<size_t>(handle) * spec_.value_size;
  return Bytes(begin, begin + spec_.value_size);
}

MutableByteSpan Map::MutableValue(uint32_t handle) {
  CHECK_LE(static_cast<size_t>(handle + 1) * spec_.value_size, values_.size());
  return MutableByteSpan(values_.data() + static_cast<size_t>(handle) * spec_.value_size,
                         spec_.value_size);
}

Result<Bytes> Map::Lookup(ByteSpan key) const {
  ASSIGN_OR_RETURN(uint32_t handle, LookupHandle(key));
  return ValueByHandle(handle);
}

std::vector<std::pair<Bytes, Bytes>> Map::Entries() const {
  std::vector<std::pair<Bytes, Bytes>> out;
  if (spec_.type == MapType::kArray) {
    for (uint32_t i = 0; i < spec_.max_entries; ++i) {
      Bytes key;
      PutU32(key, i);
      out.emplace_back(std::move(key), *ValueByHandle(i));
    }
    return out;
  }
  out.reserve(index_.size());
  for (const auto& [key, slot] : index_) {
    out.emplace_back(Bytes(key.begin(), key.end()), *ValueByHandle(slot));
  }
  return out;
}

uint32_t MapRegistry::Create(MapSpec spec) {
  maps_.push_back(std::make_unique<Map>(std::move(spec)));
  return static_cast<uint32_t>(maps_.size() - 1);
}

Map* MapRegistry::Get(uint32_t id) {
  return id < maps_.size() ? maps_[id].get() : nullptr;
}

const Map* MapRegistry::Get(uint32_t id) const {
  return id < maps_.size() ? maps_[id].get() : nullptr;
}

}  // namespace hyperion::ebpf
