// Zoned Namespace (ZNS) command set on top of the flash model (paper §2:
// the storage-API menu "NVMoF, KV, ZNS"; the authors also cite ZNS [32]
// and Zoned-Namespaces work [153] as the block-interface escape hatch).
//
// A zoned namespace divides the LBA space into fixed-size zones that must
// be written sequentially at the zone's write pointer. The interface
// models the spec's state machine (a write opens an EMPTY zone, filling it
// makes it FULL, RESET empties it) plus Zone Append — the contention-free
// variant where the device picks the LBA and returns it, which is what a
// log-structured engine on Hyperion would actually use.

#ifndef HYPERION_SRC_NVME_ZNS_H_
#define HYPERION_SRC_NVME_ZNS_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/nvme/controller.h"

namespace hyperion::nvme {

enum class ZoneState : uint8_t { kEmpty, kOpen, kFull };

struct Zone {
  uint64_t start_lba = 0;
  uint64_t capacity_lbas = 0;  // writable LBAs (== size in this model)
  uint64_t write_pointer = 0;  // next writable LBA
  ZoneState state = ZoneState::kEmpty;
};

// Zoned view over one namespace of a Controller. The zone bookkeeping is
// the device-side FTL-free contract: sequential-write enforcement replaces
// the garbage-collecting translation layer.
class ZonedNamespace {
 public:
  // Carves `nsid` into zones of `zone_lbas` each (trailing partial zone is
  // unused, as in real devices).
  static Result<ZonedNamespace> Create(Controller* controller, uint32_t nsid,
                                       uint64_t zone_lbas);

  uint32_t ZoneCount() const { return static_cast<uint32_t>(zones_.size()); }
  uint64_t zone_lbas() const { return zone_lbas_; }
  // LBAs reachable through the zoned view: ZoneCount() * zone_lbas(). The
  // namespace's trailing partial zone (if any) is outside every zone and
  // never addressable — appends cannot cross into it.
  uint64_t AddressableLbas() const { return zones_.size() * zone_lbas_; }
  Result<Zone> Describe(uint32_t zone_id) const;
  // Writable LBAs left before the zone is FULL (0 for full zones).
  Result<uint64_t> Remaining(uint32_t zone_id) const;

  // Sequential write at the zone's write pointer. kInvalidArgument if
  // `slba` != write pointer (the ZNS contract); kResourceExhausted when
  // the zone is full.
  Status Write(uint32_t zone_id, uint64_t slba, ByteSpan data);

  // Zone Append: device chooses the LBA; returns the assigned start LBA.
  Result<uint64_t> Append(uint32_t zone_id, ByteSpan data);

  // Reads anywhere below the write pointer.
  Result<Bytes> Read(uint32_t zone_id, uint64_t slba, uint32_t block_count);

  // Resets the zone to EMPTY (the explicit erase the host now controls).
  Status Reset(uint32_t zone_id);

 private:
  ZonedNamespace(Controller* controller, uint32_t nsid, uint64_t zone_lbas)
      : controller_(controller), nsid_(nsid), zone_lbas_(zone_lbas) {}

  Controller* controller_;
  uint32_t nsid_;
  uint64_t zone_lbas_;
  std::vector<Zone> zones_;
};

}  // namespace hyperion::nvme

#endif  // HYPERION_SRC_NVME_ZNS_H_
