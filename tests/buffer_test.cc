// Unit tests for the zero-copy buffer layer: Buffer slice aliasing and
// refcount lifetime, BufferChain flatten round-trips against Bytes goldens,
// ChainReader's zero-copy/straddle split, and copy accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/bytes.h"
#include "tests/helpers.h"

namespace hyperion {
namespace {

Bytes MakeBytes(size_t n, uint8_t start) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(start + i);
  }
  return b;
}

// -- Buffer -------------------------------------------------------------

TEST(BufferTest, AdoptDoesNotCopy) {
  const uint64_t before = BufferCopiedBytes();
  Bytes raw = MakeBytes(64, 1);
  const uint8_t* payload = raw.data();
  Buffer buffer(std::move(raw));
  EXPECT_EQ(buffer.data(), payload);  // same allocation, no memcpy
  EXPECT_EQ(buffer.size(), 64u);
  EXPECT_EQ(BufferCopiedBytes(), before);
}

TEST(BufferTest, SliceAliasesParent) {
  Buffer whole(MakeBytes(32, 0));
  Buffer slice = whole.Slice(8, 16);
  EXPECT_EQ(slice.size(), 16u);
  EXPECT_EQ(slice.data(), whole.data() + 8);  // view into the same block
  EXPECT_EQ(slice[0], 8);
  EXPECT_EQ(whole.use_count(), 2);
  EXPECT_EQ(slice.use_count(), 2);
}

TEST(BufferTest, SliceKeepsBackingAliveAfterParentDies) {
  Buffer slice;
  {
    Buffer whole(MakeBytes(32, 0));
    slice = whole.Slice(30);
  }
  // The parent is gone; the slice still owns the block.
  EXPECT_EQ(slice.use_count(), 1);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0], 30);
  EXPECT_EQ(slice[1], 31);
}

TEST(BufferTest, CopiesShareWithoutDuplicating) {
  Buffer a(MakeBytes(16, 0));
  const uint64_t before = BufferCopiedBytes();
  Buffer b = a;           // refcount bump, not a byte copy
  Buffer c = a.Slice(0);  // full-range slice, same deal
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(c.data(), a.data());
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_EQ(BufferCopiedBytes(), before);
}

TEST(BufferTest, BorrowedDoesNotOwn) {
  Bytes raw = MakeBytes(8, 0);
  Buffer view = Buffer::Borrowed(ByteSpan(raw.data(), raw.size()));
  EXPECT_EQ(view.data(), raw.data());
  EXPECT_EQ(view.use_count(), 0);
}

TEST(BufferTest, BuildFillsOneOwnedBlock) {
  const uint64_t before = BufferCopiedBytes();
  Buffer built = Buffer::Build(12, [](MutableByteSpan out) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<uint8_t>(40 + i);
    }
  });
  EXPECT_EQ(built, Buffer(MakeBytes(12, 40)));
  EXPECT_EQ(built.use_count(), 1);
  EXPECT_EQ(BufferCopiedBytes(), before);  // written in place, not copied
  Buffer slice = built.Slice(4, 4);
  EXPECT_EQ(slice.data(), built.data() + 4);
  EXPECT_EQ(built.use_count(), 2);
}

TEST(BufferTest, ToBytesIsAccountedCopy) {
  Buffer buffer(MakeBytes(24, 5));
  const uint64_t before = BufferCopiedBytes();
  Bytes out = buffer.ToBytes();
  EXPECT_EQ(out, MakeBytes(24, 5));
  EXPECT_NE(out.data(), buffer.data());
  EXPECT_EQ(BufferCopiedBytes(), before + 24);
}

// -- BufferChain --------------------------------------------------------

TEST(BufferChainTest, FlattenMatchesBytesGolden) {
  // Golden: the contiguous concatenation, built the pre-buffer way.
  Bytes golden;
  Bytes a = MakeBytes(10, 0);
  Bytes b = MakeBytes(5, 100);
  Bytes c = MakeBytes(20, 200);
  golden.insert(golden.end(), a.begin(), a.end());
  golden.insert(golden.end(), b.begin(), b.end());
  golden.insert(golden.end(), c.begin(), c.end());

  BufferChain chain;
  chain.Append(Buffer(std::move(a)));
  chain.Append(Buffer(std::move(b)));
  chain.Append(Buffer(std::move(c)));
  EXPECT_EQ(chain.size(), golden.size());
  EXPECT_EQ(chain.segment_count(), 3u);
  EXPECT_EQ(Flatten(chain), golden);
}

TEST(BufferChainTest, EmptySegmentsAreDropped) {
  BufferChain chain;
  chain.Append(Buffer());
  chain.Append(Buffer(MakeBytes(4, 0)));
  chain.Append(Buffer(Bytes{}));
  EXPECT_EQ(chain.segment_count(), 1u);
  EXPECT_EQ(chain.size(), 4u);
}

TEST(BufferChainTest, AppendSharesSegments) {
  Buffer seg(MakeBytes(16, 0));
  BufferChain chain;
  const uint64_t before = BufferCopiedBytes();
  chain.Append(seg);
  EXPECT_EQ(chain.segment(0).data(), seg.data());
  EXPECT_EQ(seg.use_count(), 2);
  EXPECT_EQ(BufferCopiedBytes(), before);
}

TEST(BufferChainTest, CopyToRoundTrips) {
  BufferChain chain;
  chain.Append(Buffer(MakeBytes(7, 1)));
  chain.Append(Buffer(MakeBytes(9, 8)));
  Bytes out(chain.size());
  CopyTo(chain, MutableByteSpan(out.data(), out.size()));
  EXPECT_EQ(out, MakeBytes(16, 1));
}

// -- ChainReader --------------------------------------------------------

TEST(ChainReaderTest, InSegmentReadIsZeroCopy) {
  BufferChain chain;
  chain.Append(Buffer(MakeBytes(16, 0)));
  chain.Append(Buffer(MakeBytes(16, 16)));
  ChainReader reader(chain);
  Bytes scratch(32);
  const uint64_t before = BufferCopiedBytes();
  ByteSpan first = reader.Next(16, MutableByteSpan(scratch.data(), scratch.size()));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(first.data(), chain.segment(0).data());  // points into the segment
  EXPECT_EQ(BufferCopiedBytes(), before);
}

TEST(ChainReaderTest, SliceIsFreeInsideOneSegment) {
  BufferChain chain(Buffer(MakeBytes(32, 0)));
  ChainReader reader(chain);
  const uint64_t before = BufferCopiedBytes();
  Buffer sliced = reader.Slice(32);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(sliced.data(), chain.segment(0).data());
  EXPECT_EQ(sliced.use_count(), 2);  // shares the segment's block
  EXPECT_EQ(BufferCopiedBytes(), before);
}

TEST(ChainReaderTest, SliceCopiesAcrossSegments) {
  BufferChain chain;
  chain.Append(Buffer(MakeBytes(8, 0)));
  chain.Append(Buffer(MakeBytes(8, 8)));
  ChainReader reader(chain);
  const uint64_t before = BufferCopiedBytes();
  Buffer sliced = reader.Slice(16);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(sliced, Buffer(MakeBytes(16, 0)));
  EXPECT_EQ(sliced.use_count(), 1);  // a fresh block of its own
  EXPECT_EQ(BufferCopiedBytes(), before + 16);
}

TEST(ChainReaderTest, SliceSharesAndStraddles) {
  BufferChain chain;
  chain.Append(Buffer(MakeBytes(10, 0)));
  chain.Append(Buffer(MakeBytes(10, 10)));
  ChainReader reader(chain);
  reader.Skip(2);
  const uint64_t before = BufferCopiedBytes();
  Buffer head = reader.Slice(3);
  EXPECT_EQ(head.data(), chain.segment(0).data() + 2);  // inside seg0: free
  EXPECT_EQ(BufferCopiedBytes(), before);
  Buffer mid = reader.Slice(10);  // last 5 of seg0 + first 5 of seg1
  EXPECT_EQ(mid, Buffer(MakeBytes(10, 5)));
  EXPECT_EQ(BufferCopiedBytes(), before + 10);
  Buffer tail = reader.Slice(5);
  EXPECT_EQ(tail.data(), chain.segment(1).data() + 5);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.Slice(1).empty());  // overrun
  EXPECT_FALSE(reader.ok());
}

TEST(ChainReaderTest, StraddlingReadUsesScratchAndAccounts) {
  BufferChain chain;
  chain.Append(Buffer(MakeBytes(16, 0)));
  chain.Append(Buffer(MakeBytes(16, 16)));
  ChainReader reader(chain);
  Bytes scratch(32);
  Bytes discard(8);
  reader.Next(8, MutableByteSpan(discard.data(), discard.size()));
  const uint64_t before = BufferCopiedBytes();
  ByteSpan straddle = reader.Next(16, MutableByteSpan(scratch.data(), scratch.size()));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(straddle.data(), scratch.data());  // assembled in scratch
  EXPECT_EQ(BufferCopiedBytes(), before + 16);
  Bytes expect = MakeBytes(16, 8);
  EXPECT_TRUE(std::equal(straddle.begin(), straddle.end(), expect.begin()));
  // The remainder still reads correctly after the straddle.
  ByteSpan rest = reader.Next(8, MutableByteSpan(scratch.data(), scratch.size()));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(rest[0], 24);
  EXPECT_EQ(reader.remaining(), 0u);
}

// -- Thread-safety (sharded simulation contract, see buffer.h) ----------

TEST(BufferThreadTest, CopyCountersAreExactUnderConcurrency) {
  // The copy tally is a relaxed atomic: concurrent accounted copies from
  // shard workers must lose no increments.
  constexpr int kThreads = 4;
  constexpr int kCopies = 2000;
  constexpr size_t kBytes = 64;
  const Buffer payload(MakeBytes(kBytes, 0));
  const uint64_t bytes_before = BufferCopiedBytes();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([payload] {
      for (int i = 0; i < kCopies; ++i) {
        Bytes copy = payload.ToBytes();
        ASSERT_EQ(copy.size(), size_t{kBytes});
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(BufferCopiedBytes() - bytes_before, uint64_t{kThreads} * kCopies * kBytes);
}

TEST(BufferThreadTest, SlicesOfSharedBlockCrossThreadsSafely) {
  // Distinct Buffer objects over one control block may live on different
  // shards: the shared_ptr refcount keeps the block alive until the last
  // slice (on any thread) drops. TSan-checked in CI.
  Buffer base(MakeBytes(256, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    Buffer slice = base.Slice(static_cast<size_t>(t) * 64, 64);
    threads.emplace_back([slice = std::move(slice), t] {
      for (int i = 0; i < 1000; ++i) {
        Buffer inner = slice.Slice(8, 16);
        ASSERT_EQ(inner[0], static_cast<uint8_t>(t * 64 + 8));
      }
    });
  }
  Buffer main_slice = base.Slice(0, 1);
  base = Buffer();  // drop the original owner while slices are live
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(main_slice[0], 0u);
}

TEST(BufferThreadTest, SingleBlockBuffersCrossThreadsSafely) {
  // Blocks whose bytes share the refcount's allocation (Build) are made,
  // sliced, copied and dropped on several threads, while every
  // thread also holds slices of one block built here and dropped early.
  // TSan-checked in CI.
  Buffer shared = Buffer::Build(256, [](MutableByteSpan out) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<uint8_t>(i);
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    Buffer slice = shared.Slice(static_cast<size_t>(t) * 64, 64);
    threads.emplace_back([slice = std::move(slice), t] {
      for (int i = 0; i < 500; ++i) {
        Buffer own = Buffer::Build(32, [t, i](MutableByteSpan out) {
          std::fill(out.begin(), out.end(), static_cast<uint8_t>(t + i));
        });
        Buffer copy = own;
        Buffer part = copy.Slice(8, 8);
        own = Buffer();
        ASSERT_EQ(part[0], static_cast<uint8_t>(t + i));
        Buffer dup = Buffer::Build(16, [&slice](MutableByteSpan out) {
          std::memcpy(out.data(), slice.data() + 16, out.size());
        });
        ASSERT_EQ(dup[0], static_cast<uint8_t>(t * 64 + 16));
        Buffer inner = slice.Slice(1, 2);
        ASSERT_EQ(inner[0], static_cast<uint8_t>(t * 64 + 1));
      }
    });
  }
  Buffer main_slice = shared.Slice(0, 1);
  shared = Buffer();  // drop the original owner while slices are live
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(main_slice[0], 0u);
  EXPECT_EQ(main_slice.use_count(), 1);
}

TEST(ChainReaderTest, OverrunClearsOk) {
  BufferChain chain(Buffer(MakeBytes(4, 0)));
  ChainReader reader(chain);
  Bytes scratch(8);
  ByteSpan got = reader.Next(8, MutableByteSpan(scratch.data(), scratch.size()));
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(reader.ok());
}

}  // namespace
}  // namespace hyperion
