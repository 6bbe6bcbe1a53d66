// Flow/packet representation shared by the network middleware apps.

#ifndef HYPERION_SRC_APPS_PACKET_H_
#define HYPERION_SRC_APPS_PACKET_H_

#include <array>
#include <cstdint>
#include <functional>

#include "src/common/bytes.h"

namespace hyperion::apps {

struct FlowKey {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 6;  // TCP

  friend bool operator==(const FlowKey&, const FlowKey&) = default;

  // Serialize()'s length: both addresses, both ports and the protocol.
  static constexpr size_t kSerializedBytes = 4 + 4 + 2 + 2 + 1;

  uint64_t Hash() const;
  // The spill-table key, built in place.
  std::array<uint8_t, kSerializedBytes> Serialize() const;
};

// TCP flag bits used by the middleware.
constexpr uint8_t kTcpSyn = 0x02;
constexpr uint8_t kTcpAck = 0x10;
constexpr uint8_t kTcpFin = 0x01;
constexpr uint8_t kTcpRst = 0x04;

struct Packet {
  FlowKey flow;
  uint8_t tcp_flags = 0;
  uint32_t payload_bytes = 0;
};

}  // namespace hyperion::apps

template <>
struct std::hash<hyperion::apps::FlowKey> {
  size_t operator()(const hyperion::apps::FlowKey& key) const noexcept {
    return static_cast<size_t>(key.Hash());
  }
};

#endif  // HYPERION_SRC_APPS_PACKET_H_
