// Unit tests for src/common: Status/Result, U128, byte utilities, RNG.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/u128.h"

namespace hyperion {
namespace {

// -- Hex text for test output ---------------------------------------------

constexpr char kHexDigits[] = "0123456789abcdef";

// "deadbeef"-style lowercase hex of a buffer.
std::string ToHex(ByteSpan data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t byte : data) {
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0xf]);
  }
  return out;
}

// 32 hex digits, zero padded: "0123456789abcdef0123456789abcdef".
std::string U128ToHex(const U128& v) {
  std::string out(32, '0');
  const uint64_t parts[2] = {v.hi, v.lo};
  for (int p = 0; p < 2; ++p) {
    uint64_t part = parts[p];
    for (int i = 15; i >= 0; --i) {
      out[p * 16 + i] = kHexDigits[part & 0xf];
      part >>= 4;
    }
  }
  return out;
}

// Parses U128ToHex() output (also shorter strings, right-aligned). Returns
// false on non-hex input or more than 32 digits.
bool U128FromHex(const std::string& hex, U128* out) {
  if (hex.empty() || hex.size() > 32) {
    return false;
  }
  U128 v;
  for (char c : hex) {
    int d = -1;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = c - 'A' + 10;
    } else {
      return false;
    }
    // v = v * 16 + d, 128-bit shift-left by 4.
    v.hi = (v.hi << 4) | (v.lo >> 60);
    v.lo = (v.lo << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

// -- Status -------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = NotFound("segment 42");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "segment 42");
  EXPECT_EQ(st.ToString(), "NOT_FOUND: segment 42");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  for (const Status& st :
       {InvalidArgument(""), NotFound(""), AlreadyExists(""), OutOfRange(""),
        PermissionDenied(""), Unavailable(""), DataLoss(""), Internal(""), Unimplemented(""),
        Aborted(""), DeadlineExceeded(""), ResourceExhausted("")}) {
    codes.insert(st.code());
  }
  EXPECT_EQ(codes.size(), 12u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFound("x"), NotFound("x"));
  EXPECT_FALSE(NotFound("x") == NotFound("y"));
  EXPECT_FALSE(NotFound("x") == Internal("x"));
}

Status FailsThrough() {
  RETURN_IF_ERROR(Unavailable("inner"));
  return Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kUnavailable);
}

// -- Result ---------------------------------------------------------------

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return InvalidArgument("not positive");
  }
  return x;
}

Result<int> Doubled(int x) {
  ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(ResultTest, ValueOr) {
  EXPECT_EQ(ParsePositive(5).value_or(-1), 5);
  EXPECT_EQ(ParsePositive(0).value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

// -- U128 -------------------------------------------------------------------

TEST(U128Test, OrderingUsesHighWordFirst) {
  EXPECT_LT(U128(0, 5), U128(1, 0));
  EXPECT_LT(U128(1, 1), U128(1, 2));
  EXPECT_EQ(U128(3, 4), U128(3, 4));
}

TEST(U128Test, AdditionCarries) {
  U128 v(0, ~0ull);
  U128 w = v + 1;
  EXPECT_EQ(w.hi, 1u);
  EXPECT_EQ(w.lo, 0u);
}

TEST(U128Test, SubtractionBorrows) {
  U128 v(1, 0);
  U128 w = v - 1;
  EXPECT_EQ(w.hi, 0u);
  EXPECT_EQ(w.lo, ~0ull);
}

TEST(U128Test, HexRoundTrip) {
  U128 v(0x0123456789abcdefull, 0xfedcba9876543210ull);
  EXPECT_EQ(U128ToHex(v), "0123456789abcdeffedcba9876543210");
  U128 parsed;
  ASSERT_TRUE(U128FromHex(U128ToHex(v), &parsed));
  EXPECT_EQ(parsed, v);
}

TEST(U128Test, FromHexShortStringIsRightAligned) {
  U128 parsed;
  ASSERT_TRUE(U128FromHex("ff", &parsed));
  EXPECT_EQ(parsed, U128(0, 0xff));
}

TEST(U128Test, FromHexRejectsGarbage) {
  U128 parsed;
  EXPECT_FALSE(U128FromHex("xyz", &parsed));
  EXPECT_FALSE(U128FromHex("", &parsed));
  EXPECT_FALSE(U128FromHex(std::string(33, 'a'), &parsed));
}

TEST(U128Test, HashSpreadsValues) {
  std::unordered_set<U128> set;
  for (uint64_t i = 0; i < 1000; ++i) {
    set.insert(U128(i, i * 3));
  }
  EXPECT_EQ(set.size(), 1000u);
}

// -- Bytes --------------------------------------------------------------

TEST(BytesTest, FixedWidthRoundTrip) {
  Bytes buf;
  PutU16(buf, 0xbeef);
  PutU32(buf, 0xdeadbeef);
  PutU64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(GetU16(buf, 0), 0xbeef);
  EXPECT_EQ(GetU32(buf, 2), 0xdeadbeefu);
  EXPECT_EQ(GetU64(buf, 6), 0x0123456789abcdefull);
}

TEST(BytesTest, LittleEndianLayout) {
  Bytes buf;
  PutU32(buf, 0x04030201);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[3], 4);
}

TEST(BytesTest, StringRoundTrip) {
  Bytes buf;
  PutString(buf, "hyperion");
  ByteReader reader{ByteSpan(buf.data(), buf.size())};
  EXPECT_EQ(reader.ReadString(), "hyperion");
  EXPECT_TRUE(reader.Ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BytesTest, ReaderDetectsTruncation) {
  Bytes buf;
  PutU32(buf, 100);  // declares 100 bytes that are absent
  ByteReader reader{ByteSpan(buf.data(), buf.size())};
  std::string s = reader.ReadString();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(reader.Ok());
}

TEST(BytesTest, ReaderOverrunIsSticky) {
  Bytes buf = {1, 2};
  ByteReader reader{ByteSpan(buf.data(), buf.size())};
  reader.ReadU64();
  EXPECT_FALSE(reader.Ok());
  EXPECT_EQ(reader.ReadU8(), 0);  // still failed
}

TEST(BytesTest, Crc32cKnownVector) {
  // RFC 3720 test vector: 32 bytes of zeros -> 0x8a9136aa.
  Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(ByteSpan(zeros.data(), zeros.size())), 0x8a9136aau);
}

TEST(BytesTest, Crc32cDetectsBitFlip) {
  Bytes data = ToBytes("the quick brown fox");
  const uint32_t before = Crc32c(ByteSpan(data.data(), data.size()));
  data[3] ^= 0x01;
  EXPECT_NE(before, Crc32c(ByteSpan(data.data(), data.size())));
}

TEST(BytesTest, Crc32cHardwareMatchesSoftware) {
  if (!internal::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no hardware CRC32C on this machine";
  }
  // Random inputs at every length 0..64 (covers the 8/4/1-byte instruction
  // tails) plus large odd-sized blocks.
  Rng rng(42);
  for (size_t len = 0; len <= 64; ++len) {
    Bytes data(len);
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    ByteSpan span(data.data(), data.size());
    EXPECT_EQ(internal::Crc32cHardware(span), internal::Crc32cSoftware(span))
        << "length " << len;
  }
  for (size_t len : {1021u, 4096u, 65537u}) {
    Bytes data(len);
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    ByteSpan span(data.data(), data.size());
    EXPECT_EQ(internal::Crc32cHardware(span), internal::Crc32cSoftware(span))
        << "length " << len;
  }
}

TEST(BytesTest, ByteWriterMatchesFreeFunctions) {
  Bytes golden;
  PutU16(golden, 0x1234);
  PutU32(golden, 0xdeadbeef);
  PutU64(golden, 0x0102030405060708ull);
  PutString(golden, "hyperion");
  Bytes tail = {9, 9, 9};
  PutBytes(golden, ByteSpan(tail.data(), tail.size()));

  ByteWriter writer(golden.size());
  writer.PutU16(0x1234);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0102030405060708ull);
  writer.PutString("hyperion");
  writer.PutBytes(ByteSpan(tail.data(), tail.size()));
  EXPECT_EQ(writer.bytes(), golden);
  EXPECT_EQ(writer.size(), golden.size());

  Bytes taken = writer.Take();
  EXPECT_EQ(taken, golden);
  EXPECT_EQ(writer.size(), 0u);
}

TEST(BytesTest, PutGetRoundTripAllWidths) {
  Bytes buf;
  PutU16(buf, 0xfffe);
  PutU32(buf, 0x80000001u);
  PutU64(buf, 0x8000000000000001ull);
  ByteSpan span(buf.data(), buf.size());
  EXPECT_EQ(GetU16(span, 0), 0xfffe);
  EXPECT_EQ(GetU32(span, 2), 0x80000001u);
  EXPECT_EQ(GetU64(span, 6), 0x8000000000000001ull);
  // Little-endian wire layout is pinned (cross-machine determinism).
  EXPECT_EQ(buf[0], 0xfe);
  EXPECT_EQ(buf[1], 0xff);
}

TEST(BytesTest, HexFormatting) {
  Bytes data = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(ToHex(ByteSpan(data.data(), data.size())), "deadbeef");
}

TEST(BytesTest, FnvDiffersAcrossInputs) {
  Bytes a = ToBytes("a");
  Bytes b = ToBytes("b");
  EXPECT_NE(Fnv1a64(ByteSpan(a.data(), a.size())), Fnv1a64(ByteSpan(b.data(), b.size())));
}

// -- Rng -------------------------------------------------------------------

TEST(FastModTest, MatchesTheHardwareRemainder) {
  Rng rng(30);
  std::vector<uint64_t> divisors = {1, 2, 3, 7, 10, 16383, 65537, UINT64_MAX - 1, UINT64_MAX};
  for (int k = 1; k < 64; ++k) {
    divisors.push_back(uint64_t{1} << k);
  }
  for (int i = 0; i < 32; ++i) {
    divisors.push_back((rng.Next() >> rng.Uniform(64)) | 1);  // every width
  }
  for (const uint64_t d : divisors) {
    SCOPED_TRACE(d);
    const FastMod mod(d);
    for (const uint64_t x : {uint64_t{0}, uint64_t{1}, d - 1, d, d + 1, 2 * d, UINT64_MAX - 1,
                             UINT64_MAX}) {
      ASSERT_EQ(mod(x), x % d) << x;
    }
    for (int i = 0; i < 2000; ++i) {
      const uint64_t x = rng.Next() >> rng.Uniform(64);
      ASSERT_EQ(mod(x), x % d) << x;
    }
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.UniformRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(6);
  uint64_t zero_hits = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(1000, 0.99) == 0) {
      ++zero_hits;
    }
  }
  // With theta=0.99 the hottest key draws a large share (far above uniform
  // 1/1000 = 20 hits).
  EXPECT_GT(zero_hits, kDraws / 20);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Zipf(50, 0.9), 50u);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(9);
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    sum += rng.Exponential(100.0);
  }
  const double mean = sum / kDraws;
  EXPECT_GT(mean, 90.0);
  EXPECT_LT(mean, 110.0);
}

}  // namespace
}  // namespace hyperion
