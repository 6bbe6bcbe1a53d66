#include "src/apps/packet.h"

#include <sstream>

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

namespace {
std::string IpToString(uint32_t ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.' << ((ip >> 8) & 0xff) << '.'
     << (ip & 0xff);
  return os.str();
}
}  // namespace

std::string FlowKey::ToString() const {
  std::ostringstream os;
  os << IpToString(src_ip) << ':' << src_port << " -> " << IpToString(dst_ip) << ':' << dst_port
     << '/' << static_cast<int>(protocol);
  return os.str();
}

}  // namespace hyperion::apps
