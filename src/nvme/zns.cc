#include "src/nvme/zns.h"

namespace hyperion::nvme {

Result<ZonedNamespace> ZonedNamespace::Create(Controller* controller, uint32_t nsid,
                                              uint64_t zone_lbas) {
  if (zone_lbas == 0) {
    return InvalidArgument("zone size must be positive");
  }
  ASSIGN_OR_RETURN(uint64_t capacity, controller->NamespaceCapacity(nsid));
  const uint64_t zone_count = capacity / zone_lbas;
  if (zone_count == 0) {
    return InvalidArgument("namespace smaller than one zone");
  }
  ZonedNamespace zns(controller, nsid, zone_lbas);
  zns.zones_.reserve(zone_count);
  for (uint64_t z = 0; z < zone_count; ++z) {
    Zone zone;
    zone.start_lba = z * zone_lbas;
    zone.capacity_lbas = zone_lbas;
    zone.write_pointer = zone.start_lba;
    zns.zones_.push_back(zone);
  }
  return zns;
}

Result<Zone> ZonedNamespace::Describe(uint32_t zone_id) const {
  if (zone_id >= zones_.size()) {
    return InvalidArgument("no such zone");
  }
  return zones_[zone_id];
}

Result<uint64_t> ZonedNamespace::Remaining(uint32_t zone_id) const {
  if (zone_id >= zones_.size()) {
    return InvalidArgument("no such zone");
  }
  const Zone& zone = zones_[zone_id];
  return zone.start_lba + zone.capacity_lbas - zone.write_pointer;
}

Status ZonedNamespace::Write(uint32_t zone_id, uint64_t slba, ByteSpan data) {
  if (zone_id >= zones_.size()) {
    return InvalidArgument("no such zone");
  }
  Zone& zone = zones_[zone_id];
  if (zone.state == ZoneState::kFull) {
    return ResourceExhausted("zone is full");
  }
  if (data.empty() || data.size() % kLbaSize != 0) {
    return InvalidArgument("write must be whole LBAs");
  }
  if (slba != zone.write_pointer) {
    return InvalidArgument("ZNS violation: write not at the zone write pointer");
  }
  const uint64_t blocks = data.size() / kLbaSize;
  if (zone.write_pointer + blocks > zone.start_lba + zone.capacity_lbas) {
    return ResourceExhausted("write crosses the zone boundary");
  }
  RETURN_IF_ERROR(controller_->Write(nsid_, slba, data));
  zone.write_pointer += blocks;
  zone.state = zone.write_pointer == zone.start_lba + zone.capacity_lbas ? ZoneState::kFull
                                                                          : ZoneState::kOpen;
  return Status::Ok();
}

Result<uint64_t> ZonedNamespace::Append(uint32_t zone_id, ByteSpan data) {
  if (zone_id >= zones_.size()) {
    return InvalidArgument("no such zone");
  }
  const uint64_t assigned = zones_[zone_id].write_pointer;
  RETURN_IF_ERROR(Write(zone_id, assigned, data));
  return assigned;
}

Result<Bytes> ZonedNamespace::Read(uint32_t zone_id, uint64_t slba, uint32_t block_count) {
  if (zone_id >= zones_.size()) {
    return InvalidArgument("no such zone");
  }
  const Zone& zone = zones_[zone_id];
  // slba comes from SSTable extents read off media: no sum may wrap.
  if (slba < zone.start_lba || slba > zone.write_pointer ||
      block_count > zone.write_pointer - slba) {
    return OutOfRange("read beyond the zone's written extent");
  }
  return controller_->Read(nsid_, slba, block_count);
}

Status ZonedNamespace::Reset(uint32_t zone_id) {
  if (zone_id >= zones_.size()) {
    return InvalidArgument("no such zone");
  }
  Zone& zone = zones_[zone_id];
  zone.write_pointer = zone.start_lba;
  zone.state = ZoneState::kEmpty;
  return Status::Ok();
}

}  // namespace hyperion::nvme
