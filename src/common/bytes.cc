#include "src/common/bytes.h"

#include <array>

#include "src/common/check.h"

#if defined(__x86_64__) || defined(__i386__)
#define HYPERION_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__linux__)
#define HYPERION_CRC32C_ARM 1
#include <arm_acle.h>
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif

namespace hyperion {

namespace {

// Castagnoli polynomial, reflected.
constexpr uint32_t kCrc32cPoly = 0x82f63b78u;

std::array<uint32_t, 256> BuildCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

namespace internal {

uint32_t Crc32cSoftware(ByteSpan data) {
  static const std::array<uint32_t, 256> kTable = BuildCrc32cTable();
  uint32_t crc = 0xffffffffu;
  for (uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#if defined(HYPERION_CRC32C_X86)

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2") != 0; }

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(ByteSpan data) {
  uint32_t crc = 0xffffffffu;
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc64 = _mm_crc32_u64(crc64, chunk);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
#endif
  while (n >= 4) {
    uint32_t chunk;
    std::memcpy(&chunk, p, 4);
    crc = _mm_crc32_u32(crc, chunk);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc ^ 0xffffffffu;
}

#elif defined(HYPERION_CRC32C_ARM)

bool Crc32cHardwareAvailable() { return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0; }

__attribute__((target("+crc"))) uint32_t Crc32cHardware(ByteSpan data) {
  uint32_t crc = 0xffffffffu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc = __crc32cd(crc, chunk);
    p += 8;
    n -= 8;
  }
  while (n >= 4) {
    uint32_t chunk;
    std::memcpy(&chunk, p, 4);
    crc = __crc32cw(crc, chunk);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  return crc ^ 0xffffffffu;
}

#else

bool Crc32cHardwareAvailable() { return false; }

uint32_t Crc32cHardware(ByteSpan data) {
  CHECK(false) << "no hardware CRC32C on this target";
  return Crc32cSoftware(data);
}

#endif

}  // namespace internal

uint32_t Crc32c(ByteSpan data) {
  static const bool kUseHardware = internal::Crc32cHardwareAvailable();
  return kUseHardware ? internal::Crc32cHardware(data) : internal::Crc32cSoftware(data);
}

uint64_t Fnv1a64(ByteSpan data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hyperion
