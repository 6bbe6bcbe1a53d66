#include "src/apps/packet.h"

namespace hyperion::apps {

uint64_t FlowKey::Hash() const { return Fnv1a64(Serialize()); }

std::array<uint8_t, FlowKey::kSerializedBytes> FlowKey::Serialize() const {
  std::array<uint8_t, kSerializedBytes> out;
  SetU32(out, 0, src_ip);
  SetU32(out, 4, dst_ip);
  SetU16(out, 8, src_port);
  SetU16(out, 10, dst_port);
  out[12] = protocol;
  return out;
}

}  // namespace hyperion::apps
