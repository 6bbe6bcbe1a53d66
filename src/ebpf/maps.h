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
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
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

  // Returns a stable internal handle (index into the value arena) for the
  // entry, or kNotFound. The VM exposes values to programs as tagged
  // pointers built from this handle.
  Result<uint32_t> LookupHandle(ByteSpan key) const;

  // Inserts or overwrites. kResourceExhausted when at max_entries.
  Result<uint32_t> Update(ByteSpan key, ByteSpan value);

  Status Delete(ByteSpan key);

  // Direct value access by handle (bounds-checked).
  Result<Bytes> ValueByHandle(uint32_t handle) const;
  MutableByteSpan MutableValue(uint32_t handle);

  // Convenience typed access for C++ callers.
  Result<Bytes> Lookup(ByteSpan key) const;

  // Iterates entries in unspecified order.
  std::vector<std::pair<Bytes, Bytes>> Entries() const;

 private:
  MapSpec spec_;
  // Value arena: slot i holds value_size bytes; free list recycles slots.
  std::vector<uint8_t> values_;
  std::vector<uint32_t> free_slots_;
  uint32_t next_slot_ = 0;
  // Hashes std::string keys and std::string_view probes alike, so lookups
  // need not build a std::string.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const { return std::hash<std::string_view>{}(key); }
  };
  std::unordered_map<std::string, uint32_t, KeyHash, std::equal_to<>> index_;  // key -> slot
};

// Registry with dense u32 ids, what LD_IMM64/map-fd instructions reference.
class MapRegistry {
 public:
  uint32_t Create(MapSpec spec);
  Map* Get(uint32_t id);
  const Map* Get(uint32_t id) const;
  size_t Count() const { return maps_.size(); }

 private:
  std::vector<std::unique_ptr<Map>> maps_;
};

}  // namespace hyperion::ebpf

#endif  // HYPERION_SRC_EBPF_MAPS_H_
