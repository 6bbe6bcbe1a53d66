// eBPF maps: the state abstraction shared between programs and the host
// (or, on Hyperion, between pipeline stages and the DPU runtime).
//
// Two kinds cover the workloads in the paper: HashMap (fail2ban counters,
// load-balancer flow tables) and ArrayMap (configuration, histograms).
// Keys and values are fixed-size byte strings, as in the kernel ABI.

#ifndef HYPERION_SRC_EBPF_MAPS_H_
#define HYPERION_SRC_EBPF_MAPS_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/probe_table.h"
#include "src/common/result.h"

namespace hyperion::ebpf {

enum class MapType : uint8_t { kHash, kArray };

struct MapSpec {
  MapType type = MapType::kHash;
  uint32_t key_size = 4;
  uint32_t value_size = 8;
  uint32_t max_entries = 1024;
  std::string name;
  // Owning tenant; kSharedMap means any program may reference it. The DPU
  // control path enforces that a tenant's programs only reference maps it
  // owns (or shared ones) *before* anything reaches the fabric.
  uint32_t tenant = 0xffffffffu;
};

constexpr uint32_t kSharedMap = 0xffffffffu;

class Map {
 public:
  explicit Map(MapSpec spec);

  const MapSpec& spec() const { return spec_; }
  uint32_t EntryCount() const;

  // What Probe() answers for a key with no entry.
  static constexpr uint32_t kNoHandle = 0xffffffffu;

  // The stable internal handle (index into the value arena) of the entry
  // whose key is the key_size bytes at `key`, or kNoHandle. The VM exposes
  // values to programs as tagged pointers built from this handle; its
  // map_lookup probes here, inline, and 4- and 8-byte keys compare as
  // words.
  uint32_t Probe(const uint8_t* key) const {
    if (spec_.type == MapType::kArray) {
      const uint32_t idx = GetU32(ByteSpan(key, 4), 0);
      return idx < spec_.max_entries ? idx : kNoHandle;
    }
    return index_[FindCell(key)] - 1;  // an empty cell holds 0
  }

  // Probe() for a key of any length: nullopt when its length is not
  // key_size or it has no entry.
  std::optional<uint32_t> LookupHandle(ByteSpan key) const {
    if (key.size() != spec_.key_size) {
      return std::nullopt;
    }
    const uint32_t handle = Probe(key.data());
    return handle == kNoHandle ? std::nullopt : std::optional<uint32_t>(handle);
  }

  // Inserts or overwrites. kResourceExhausted when at max_entries.
  Result<uint32_t> Update(ByteSpan key, ByteSpan value);
  // Update() of the key_size and value_size bytes at `key` and `value`,
  // with no Status built: the slot written, or kNoHandle for an array
  // index out of range or a full map. The VM's map_update answers -1 for
  // both.
  uint32_t Put(const uint8_t* key, const uint8_t* value);

  Status Delete(ByteSpan key);

  // True when `handle` names a slot inside the value arena.
  bool HasSlot(uint32_t handle) const {
    return (size_t{handle} + 1) * spec_.value_size <= values_.size();
  }

  // The `len` bytes at `offset` in slot `handle`'s value, or nullptr when
  // they leave the value or the slot leaves the arena.
  uint8_t* ValueWindow(uint32_t handle, uint64_t offset, uint64_t len) {
    if (offset > spec_.value_size || len > spec_.value_size - offset || !HasSlot(handle)) {
      return nullptr;
    }
    return values_.data() + size_t{handle} * spec_.value_size + offset;
  }

  // Direct value access by handle (bounds-checked).
  Result<Bytes> ValueByHandle(uint32_t handle) const;
  MutableByteSpan MutableValue(uint32_t handle) {
    CHECK(HasSlot(handle)) << "map handle " << handle << " past the value arena";
    return MutableByteSpan(values_.data() + size_t{handle} * spec_.value_size, spec_.value_size);
  }

  // Convenience typed access for C++ callers.
  Result<Bytes> Lookup(ByteSpan key) const;

 private:
  // Fibonacci hashing, its top bits swapped down to where the index masks:
  // every input bit reaches them, in one multiply.
  static uint64_t Mix(uint64_t x) { return __builtin_bswap64(x * 0x9e3779b97f4a7c15ull); }
  static uint64_t HashKey(const uint8_t* key, size_t size) {
    uint64_t h = size;
    for (; size >= 8; key += 8, size -= 8) {
      uint64_t word;
      std::memcpy(&word, key, 8);
      h = Mix(h ^ word);
    }
    if (size > 0) {
      uint64_t word = 0;
      std::memcpy(&word, key, size);
      h = Mix(h ^ word);
    }
    return h;
  }

  // The index cell holding `key`, or the empty cell where it would go.
  size_t FindCell(const uint8_t* key) const {
    switch (spec_.key_size) {
      case 4:
        return FindCellOf<4>(key);
      case 8:
        return FindCellOf<8>(key);
      default:
        return FindCellOf<0>(key);
    }
  }
  // FindCell for keys of kWidth bytes, or of key_size bytes when kWidth
  // is 0. A fixed width hashes one word, finds a slot's key by a shift and
  // compares keys as words, with no call.
  template <uint32_t kWidth>
  size_t FindCellOf(const uint8_t* key) const {
    const size_t width = kWidth != 0 ? kWidth : spec_.key_size;
    return index_.Find(HashKey(key, width), [&](uint32_t slot) {
      return std::memcmp(keys_.data() + size_t{slot} * width, key, width) == 0;
    });
  }
  const uint8_t* KeyOf(uint32_t slot) const { return keys_.data() + size_t{slot} * spec_.key_size; }
  uint64_t SlotHash(uint32_t slot) const { return HashKey(KeyOf(slot), spec_.key_size); }

  MapSpec spec_;
  // Value arena: slot i holds value_size bytes; free list recycles slots.
  std::vector<uint8_t> values_;
  std::vector<uint32_t> free_slots_;
  uint32_t next_slot_ = 0;
  // Hash maps only. Key arena: slot i's key is keys_[i * key_size], and
  // the index over it is hashed by HashKey and at most half full.
  std::vector<uint8_t> keys_;
  ProbeTable index_;
  uint32_t entries_ = 0;
};

// Registry with dense u32 ids, what LD_IMM64/map-fd instructions reference.
class MapRegistry {
 public:
  uint32_t Create(MapSpec spec);
  Map* Get(uint32_t id) { return id < maps_.size() ? maps_[id].get() : nullptr; }
  const Map* Get(uint32_t id) const { return id < maps_.size() ? maps_[id].get() : nullptr; }
  size_t Count() const { return maps_.size(); }

 private:
  std::vector<std::unique_ptr<Map>> maps_;
};

}  // namespace hyperion::ebpf

#endif  // HYPERION_SRC_EBPF_MAPS_H_
