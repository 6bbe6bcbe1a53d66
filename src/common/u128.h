// U128: an unsigned 128-bit integer used for Hyperion object / segment IDs.
//
// The paper (§2.1) adopts 128-bit object identifiers for its single-level,
// segmentation-based storage-memory addressing (inspired by Twizzler). We
// implement the subset of arithmetic the system needs: comparison, addition
// of 64-bit offsets and hashing — avoiding a dependency on compiler-specific
// __int128 in public headers.

#ifndef HYPERION_SRC_COMMON_U128_H_
#define HYPERION_SRC_COMMON_U128_H_

#include <compare>
#include <cstdint>
#include <functional>

namespace hyperion {

struct U128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  constexpr U128() = default;
  constexpr U128(uint64_t high, uint64_t low) : hi(high), lo(low) {}
  // Implicit widening from 64 bits is intended: segment ids are often built
  // from small integers in tests and examples.
  constexpr U128(uint64_t low) : hi(0), lo(low) {}  // NOLINT(google-explicit-constructor)

  friend constexpr bool operator==(const U128&, const U128&) = default;
  friend constexpr std::strong_ordering operator<=>(const U128& a, const U128& b) {
    if (a.hi != b.hi) {
      return a.hi <=> b.hi;
    }
    return a.lo <=> b.lo;
  }

  // a + b with wraparound, matching unsigned integer semantics.
  friend constexpr U128 operator+(U128 a, uint64_t b) {
    U128 r = a;
    r.lo += b;
    if (r.lo < a.lo) {
      ++r.hi;
    }
    return r;
  }

  friend constexpr U128 operator-(U128 a, uint64_t b) {
    U128 r = a;
    r.lo -= b;
    if (a.lo < b) {
      --r.hi;
    }
    return r;
  }

  constexpr bool IsZero() const { return hi == 0 && lo == 0; }
};

}  // namespace hyperion

template <>
struct std::hash<hyperion::U128> {
  size_t operator()(const hyperion::U128& v) const noexcept {
    // splitmix-style combine of the two halves.
    uint64_t x = v.hi ^ (v.lo + 0x9e3779b97f4a7c15ULL + (v.hi << 6) + (v.hi >> 2));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return static_cast<size_t>(x);
  }
};

#endif  // HYPERION_SRC_COMMON_U128_H_
