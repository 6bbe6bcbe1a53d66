// eBPF maps: the state abstraction shared between programs and the host
// (or, on Hyperion, between pipeline stages and the DPU runtime).
//
// Two kinds cover the workloads in the paper: HashMap (fail2ban counters,
// load-balancer flow tables) and ArrayMap (configuration, histograms).
// Keys and values are fixed-size byte strings, as in the kernel ABI.

#ifndef HYPERION_SRC_EBPF_MAPS_H_
#define HYPERION_SRC_EBPF_MAPS_H_

#include <cstdint>
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

  // The stable internal handle (index into the value arena) of the entry,
  // or nullopt when there is none. The VM exposes values to programs as
  // tagged pointers built from this handle.
  std::optional<uint32_t> LookupHandle(ByteSpan key) const;

  // Inserts or overwrites. kResourceExhausted when at max_entries.
  Result<uint32_t> Update(ByteSpan key, ByteSpan value);

  Status Delete(ByteSpan key);

  // True when `handle` names a slot inside the value arena.
  bool HasSlot(uint32_t handle) const {
    return (size_t{handle} + 1) * spec_.value_size <= values_.size();
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
  // The index cell holding `key`, or the empty cell where it would go.
  size_t FindCell(const uint8_t* key) const;
  const uint8_t* KeyOf(uint32_t slot) const { return keys_.data() + size_t{slot} * spec_.key_size; }
  uint64_t SlotHash(uint32_t slot) const;

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
