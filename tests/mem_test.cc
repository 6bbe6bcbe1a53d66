// Unit + property tests for the single-level store: allocator, segment
// table (incl. persistence/recovery), object store placement/migration, and
// the page-based VM baseline it is measured against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/allocator.h"
#include "src/mem/dram.h"
#include "src/mem/object_store.h"
#include "src/mem/segment_table.h"
#include "src/mem/vm_baseline.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"

namespace hyperion::mem {
namespace {

// -- RangeAllocator ---------------------------------------------------------

TEST(AllocatorTest, FirstFitAllocates) {
  RangeAllocator alloc(100);
  EXPECT_EQ(*alloc.Allocate(10), 0u);
  EXPECT_EQ(*alloc.Allocate(10), 10u);
  EXPECT_EQ(alloc.used(), 20u);
}

TEST(AllocatorTest, ExhaustionIsReported) {
  RangeAllocator alloc(16);
  ASSERT_TRUE(alloc.Allocate(16).ok());
  EXPECT_EQ(alloc.Allocate(1).status().code(), StatusCode::kResourceExhausted);
}

TEST(AllocatorTest, FreeCoalescesNeighbours) {
  RangeAllocator alloc(30);
  auto a = *alloc.Allocate(10);
  auto b = *alloc.Allocate(10);
  auto c = *alloc.Allocate(10);
  ASSERT_TRUE(alloc.Free(a, 10).ok());
  ASSERT_TRUE(alloc.Free(c, 10).ok());
  ASSERT_TRUE(alloc.Free(b, 10).ok());
  // Fully coalesced: one 30-byte range again.
  EXPECT_EQ(alloc.LargestFreeRange(), 30u);
  EXPECT_EQ(*alloc.Allocate(30), 0u);
}

TEST(AllocatorTest, DoubleFreeRejected) {
  RangeAllocator alloc(20);
  auto a = *alloc.Allocate(10);
  ASSERT_TRUE(alloc.Free(a, 10).ok());
  EXPECT_FALSE(alloc.Free(a, 10).ok());
}

TEST(AllocatorTest, ReserveSpecificRange) {
  RangeAllocator alloc(100);
  ASSERT_TRUE(alloc.Reserve(40, 20).ok());
  EXPECT_EQ(alloc.used(), 20u);
  // Overlapping reserve fails.
  EXPECT_FALSE(alloc.Reserve(50, 5).ok());
  // First-fit now skips the hole.
  EXPECT_EQ(*alloc.Allocate(40), 0u);
  EXPECT_EQ(*alloc.Allocate(40), 60u);
}

TEST(AllocatorTest, WrappedRangesRejected) {
  // offset + size wraps to 4: an additive bounds check would accept the
  // range. ObjectStore boot recovery reserves ranges read from the on-media
  // segment table, so a corrupt boot area can hand Reserve such a range.
  RangeAllocator reserve(1024);
  EXPECT_EQ(reserve.Reserve(UINT64_MAX - 3, 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reserve.Reserve(4, UINT64_MAX).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reserve.used(), 0u);
  EXPECT_EQ(reserve.LargestFreeRange(), 1024u);

  RangeAllocator full(1024);
  ASSERT_TRUE(full.Allocate(1024).ok());
  EXPECT_EQ(full.Free(UINT64_MAX - 3, 8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(full.Free(4, UINT64_MAX).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(full.used(), 1024u);

  // A range ending exactly at capacity is still in bounds.
  EXPECT_TRUE(reserve.Reserve(1016, 8).ok());
  EXPECT_TRUE(reserve.Free(1016, 8).ok());
  EXPECT_EQ(reserve.LargestFreeRange(), 1024u);
}

// Property: random alloc/free churn never corrupts accounting and always
// coalesces back to a single range when everything is freed.
TEST(AllocatorTest, PropertyChurnConservesSpace) {
  Rng rng(99);
  RangeAllocator alloc(1 << 20);
  std::vector<std::pair<uint64_t, uint64_t>> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      const uint64_t size = rng.UniformRange(1, 4096);
      auto off = alloc.Allocate(size);
      if (off.ok()) {
        live.emplace_back(*off, size);
      }
    } else {
      const size_t victim = rng.Uniform(live.size());
      ASSERT_TRUE(alloc.Free(live[victim].first, live[victim].second).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    uint64_t live_bytes = 0;
    for (const auto& [off, size] : live) {
      live_bytes += size;
    }
    ASSERT_EQ(alloc.used(), live_bytes);
  }
  for (const auto& [off, size] : live) {
    ASSERT_TRUE(alloc.Free(off, size).ok());
  }
  EXPECT_EQ(alloc.used(), 0u);
  EXPECT_EQ(alloc.LargestFreeRange(), 1u << 20);
}

// -- SegmentTable -------------------------------------------------------------

TEST(SegmentTableTest, InsertLookupErase) {
  SegmentTable table;
  Segment seg;
  seg.id = U128(1, 2);
  seg.size = 4096;
  seg.location = Location::kDram;
  seg.base = 0;
  ASSERT_TRUE(table.Insert(seg).ok());
  auto found = table.Lookup(U128(1, 2));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->size, 4096u);
  EXPECT_EQ(table.Insert(seg).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(table.Erase(U128(1, 2)).ok());
  EXPECT_EQ(table.Lookup(U128(1, 2)).status().code(), StatusCode::kNotFound);
}

TEST(SegmentTableTest, SerializeRoundTrip) {
  SegmentTable table;
  for (uint64_t i = 0; i < 50; ++i) {
    Segment seg;
    seg.id = U128(i, i * 7);
    seg.size = 100 + i;
    seg.location = static_cast<Location>(i % 3);
    seg.base = i * 1000;
    seg.durable = i % 2 == 0;
    ASSERT_TRUE(table.Insert(seg).ok());
  }
  Bytes blob = table.Serialize();
  auto loaded = SegmentTable::Deserialize(ByteSpan(blob.data(), blob.size()));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 50u);
  auto entries = loaded->Entries();
  auto original = table.Entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, original[i].id);
    EXPECT_EQ(entries[i].size, original[i].size);
    EXPECT_EQ(entries[i].location, original[i].location);
    EXPECT_EQ(entries[i].base, original[i].base);
    EXPECT_EQ(entries[i].durable, original[i].durable);
  }
}

TEST(SegmentTableTest, CorruptSnapshotDetected) {
  SegmentTable table;
  Segment seg;
  seg.id = U128(9, 9);
  seg.size = 10;
  ASSERT_TRUE(table.Insert(seg).ok());
  Bytes blob = table.Serialize();
  blob[10] ^= 0xff;
  auto loaded = SegmentTable::Deserialize(ByteSpan(blob.data(), blob.size()));
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentTableTest, PersistAndLoadViaNvme) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  const uint32_t ns = ctrl.AddNamespace(4096);
  SegmentTable table;
  Segment seg;
  seg.id = U128(0xAA, 0xBB);
  seg.size = 8192;
  seg.location = Location::kNvme;
  seg.base = 300;
  seg.durable = true;
  ASSERT_TRUE(table.Insert(seg).ok());
  ASSERT_TRUE(table.PersistTo(&ctrl, ns, 256).ok());
  auto loaded = SegmentTable::LoadFrom(&ctrl, ns, 256);
  ASSERT_TRUE(loaded.ok());
  auto found = loaded->Lookup(U128(0xAA, 0xBB));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->base, 300u);
  EXPECT_TRUE(found->durable);
}

TEST(SegmentTableTest, LoadFromEmptyDeviceIsNotFound) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  const uint32_t ns = ctrl.AddNamespace(4096);
  EXPECT_EQ(SegmentTable::LoadFrom(&ctrl, ns, 256).status().code(), StatusCode::kNotFound);
}

// The snapshot format written out field by field, independently of
// SegmentTable::Serialize: magic, version, count, entries by id, crc32c.
Bytes ReferenceSnapshot(const std::map<SegmentId, Segment>& entries) {
  Bytes out;
  PutU32(out, 0x53454754);
  PutU32(out, 1);
  PutU64(out, entries.size());
  for (const auto& [id, seg] : entries) {
    PutU64(out, id.hi);
    PutU64(out, id.lo);
    PutU64(out, seg.size);
    out.push_back(static_cast<uint8_t>(seg.location));
    PutU64(out, seg.base);
    out.push_back(seg.durable ? 1 : 0);
  }
  PutU32(out, Crc32c(ByteSpan(out.data(), out.size())));
  return out;
}

void ExpectSameSegment(const Segment& got, const Segment& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.location, want.location);
  EXPECT_EQ(got.base, want.base);
  EXPECT_EQ(got.durable, want.durable);
}

TEST(SegmentTableTest, ChurnMatchesReference) {
  // A third of the ids hash to the last cell of every index up to 256
  // cells (the most 48 entries use), so their probe runs wrap past the end,
  // and erasing them backward-shifts entries across the wrap; the rest
  // land anywhere.
  std::vector<SegmentId> ids;
  for (uint64_t lo = 0; ids.size() < 16; ++lo) {
    if ((std::hash<SegmentId>{}(SegmentId(0xC0FFEE, lo)) & 255) == 255) {
      ids.emplace_back(0xC0FFEE, lo);
    }
  }
  for (uint64_t i = 0; i < 32; ++i) {
    ids.emplace_back(0xB7EE000000000000ull | (i % 3), i * 0x9e3779b97f4a7c15ull);
  }
  Rng rng(2025);
  SegmentTable table;
  std::map<SegmentId, Segment> reference;
  for (int op = 0; op < 24000; ++op) {
    const SegmentId id = ids[rng.Uniform(ids.size())];
    const bool mapped = reference.count(id) != 0;
    Segment seg;
    seg.id = id;
    seg.size = 1 + rng.Uniform(1 << 20);
    seg.location = static_cast<Location>(rng.Uniform(3));
    seg.base = rng.Next();
    seg.durable = rng.Bernoulli(0.5);
    switch (rng.Uniform(5)) {
      case 0:
      case 1: {  // insert, twice as often as the rest so the table fills
        const Status st = table.Insert(seg);
        ASSERT_EQ(st.code(), mapped ? StatusCode::kAlreadyExists : StatusCode::kOk) << op;
        if (!mapped) {
          reference[id] = seg;
        }
        break;
      }
      case 2: {
        Result<Segment> erased = table.Erase(id);
        ASSERT_EQ(erased.ok(), mapped) << op;
        if (mapped) {
          ExpectSameSegment(*erased, reference[id]);
          reference.erase(id);
        }
        break;
      }
      default: {
        Result<Segment> found = table.Lookup(id);
        ASSERT_EQ(found.ok(), mapped) << op;
        const Segment* probed = table.Find(id);
        ASSERT_EQ(probed != nullptr, mapped) << op;
        if (mapped) {
          ExpectSameSegment(*found, reference[id]);
          ExpectSameSegment(*probed, reference[id]);
        }
        break;
      }
    }
    ASSERT_EQ(table.size(), reference.size()) << op;
    if (op % 97 == 0 || op == 23999) {
      const std::vector<Segment> entries = table.Entries();
      ASSERT_EQ(entries.size(), reference.size());
      auto want = reference.begin();
      for (const Segment& got : entries) {
        ExpectSameSegment(got, (want++)->second);
      }
      ASSERT_EQ(table.Serialize(), ReferenceSnapshot(reference)) << op;
    }
  }
  // Drain in random order: every backward shift must keep the rest findable.
  std::vector<SegmentId> left;
  for (const auto& [id, seg] : reference) {
    left.push_back(id);
  }
  while (!left.empty()) {
    const size_t pick = rng.Uniform(left.size());
    ASSERT_TRUE(table.Erase(left[pick]).ok());
    reference.erase(left[pick]);
    left.erase(left.begin() + static_cast<ptrdiff_t>(pick));
    for (const auto& [id, seg] : reference) {
      ASSERT_TRUE(table.Lookup(id).ok());
    }
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Serialize(), ReferenceSnapshot({}));
}

// Writes `first` (the length prefix and whatever follows) as boot LBA 0.
void PlantBootLba(nvme::Controller* ctrl, uint32_t nsid, const Bytes& first) {
  Bytes block(nvme::kLbaSize, 0);
  std::copy(first.begin(), first.end(), block.begin());
  ASSERT_TRUE(ctrl->Write(nsid, 0, ByteSpan(block.data(), block.size())).ok());
}

TEST(SegmentTableTest, BootLengthsPastTheBootAreaAreDataLoss) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  const uint32_t ns = ctrl.AddNamespace(4096);
  constexpr uint64_t kBootLbas = 4;
  // For the first four, length + 8 or its round-up to whole LBAs wraps
  // past 2^64; the last two just overrun the boot area.
  for (uint64_t length : {UINT64_MAX, UINT64_MAX - 3, UINT64_MAX - 7, UINT64_MAX - 8,
                          kBootLbas * nvme::kLbaSize - 7, uint64_t{1} << 40}) {
    Bytes first;
    PutU64(first, length);
    PlantBootLba(&ctrl, ns, first);
    EXPECT_EQ(SegmentTable::LoadFrom(&ctrl, ns, kBootLbas).status().code(), StatusCode::kDataLoss)
        << length;
  }
  // No boot area at all: nothing it could hold.
  EXPECT_EQ(SegmentTable::LoadFrom(&ctrl, ns, 0).status().code(), StatusCode::kDataLoss);
}

TEST(SegmentTableTest, CraftedSnapshotFieldsAreDataLoss) {
  Segment seg;
  seg.id = U128(3, 4);
  seg.size = 64;
  std::map<SegmentId, Segment> one = {{seg.id, seg}};
  // A location byte outside {DRAM, HBM, NVMe}, under a valid checksum.
  Bytes snapshot = ReferenceSnapshot(one);
  constexpr size_t kLocationAt = 4 + 4 + 8 + 16 + 8;
  for (uint8_t location : {3, 0x80, 0xff}) {
    snapshot[kLocationAt] = location;
    const size_t body = snapshot.size() - 4;
    snapshot.resize(body);
    PutU32(snapshot, Crc32c(ByteSpan(snapshot.data(), body)));
    Result<SegmentTable> loaded = SegmentTable::Deserialize(ByteSpan(snapshot.data(), snapshot.size()));
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << int{location};
    EXPECT_EQ(loaded.status().message(), "bad segment location");
  }
  // An entry count whose byte size wraps 2^64 to 16, under a valid checksum.
  Bytes counted;
  PutU32(counted, 0x53454754);
  PutU32(counted, 1);
  PutU64(counted, (UINT64_MAX / 34) + 1);
  counted.resize(counted.size() + 16, 0);
  PutU32(counted, Crc32c(ByteSpan(counted.data(), counted.size())));
  Result<SegmentTable> loaded = SegmentTable::Deserialize(ByteSpan(counted.data(), counted.size()));
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(loaded.status().message(), "segment table snapshot truncated");
}

TEST(SegmentTableTest, SnapshotTruncationsAndByteFlipsNeverCrash) {
  SegmentTable table;
  for (uint64_t i = 0; i < 40; ++i) {
    Segment seg;
    seg.id = U128(0xC0FFEE, i);
    seg.size = 4096 * (i + 1);
    seg.location = static_cast<Location>(i % 3);
    seg.base = 256 + 8 * i;
    seg.durable = i % 2 == 0;
    ASSERT_TRUE(table.Insert(seg).ok());
  }
  const Bytes snapshot = table.Serialize();
  for (size_t cut = 0; cut < snapshot.size(); ++cut) {
    EXPECT_EQ(SegmentTable::Deserialize(ByteSpan(snapshot.data(), cut)).status().code(),
              StatusCode::kDataLoss)
        << cut;
  }
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  const uint32_t ns = ctrl.AddNamespace(4096);
  constexpr uint64_t kBootLbas = 4;
  ASSERT_TRUE(table.PersistTo(&ctrl, ns, kBootLbas).ok());
  const Bytes boot = *ctrl.Read(ns, 0, kBootLbas);
  Rng rng(77);
  for (int flip = 0; flip < 2000; ++flip) {
    // A flip the checksum catches...
    Bytes bad = snapshot;
    const size_t at = rng.Uniform(bad.size());
    const auto mask = static_cast<uint8_t>(1 + rng.Uniform(255));
    bad[at] ^= mask;
    EXPECT_EQ(SegmentTable::Deserialize(ByteSpan(bad.data(), bad.size())).status().code(),
              StatusCode::kDataLoss);
    // ...and the same flip re-sealed, which reaches the field decoders.
    const size_t body = bad.size() - 4;
    if (at < body) {
      bad.resize(body);
      PutU32(bad, Crc32c(ByteSpan(bad.data(), body)));
      Result<SegmentTable> loaded = SegmentTable::Deserialize(ByteSpan(bad.data(), bad.size()));
      if (loaded.ok()) {
        const Bytes again = loaded->Serialize();
        ASSERT_TRUE(SegmentTable::Deserialize(ByteSpan(again.data(), again.size())).ok());
      }
    }
    // The whole boot area as flash holds it, length prefix included.
    Bytes area = boot;
    area[rng.Uniform(8 + snapshot.size())] ^= mask;
    ASSERT_TRUE(ctrl.Write(ns, 0, ByteSpan(area.data(), area.size())).ok());
    (void)SegmentTable::LoadFrom(&ctrl, ns, kBootLbas);
  }
}

// -- DramDevice ---------------------------------------------------------------

constexpr uint64_t kPage = DramDevice::kPageSize;

Bytes Pattern(size_t n, uint8_t seed) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(seed + 13 * i);
  }
  return b;
}

TEST(DramDeviceTest, UnwrittenBytesReadAsZero) {
  sim::Engine engine;
  DramDevice dram(&engine, 4 * kPage);
  const Bytes data = Pattern(16, 1);
  ASSERT_TRUE(dram.Write(kPage + 100, ByteSpan(data)).ok());

  // The caller's buffer starts dirty: unwritten pages must overwrite it.
  Bytes out(4 * kPage, 0xAB);
  ASSERT_TRUE(dram.Read(0, MutableByteSpan(out)).ok());
  for (uint64_t i = 0; i < out.size(); ++i) {
    const bool written = i >= kPage + 100 && i < kPage + 116;
    ASSERT_EQ(out[i], written ? data[i - kPage - 100] : 0) << "byte " << i;
  }
}

TEST(DramDeviceTest, StraddlingAccessRoundTrips) {
  sim::Engine engine;
  DramDevice dram(&engine, 4 * kPage);
  // Last 50 bytes of page 0, all of page 1, first 50 bytes of page 2.
  const Bytes data = Pattern(kPage + 100, 7);
  ASSERT_TRUE(dram.Write(kPage - 50, ByteSpan(data)).ok());
  Bytes out(data.size());
  ASSERT_TRUE(dram.Read(kPage - 50, MutableByteSpan(out)).ok());
  EXPECT_EQ(out, data);

  // A read straddling the second boundary sees the tail of the write, then
  // zeros from the untouched rest of page 2.
  Bytes tail(80);
  ASSERT_TRUE(dram.Read(2 * kPage - 10, MutableByteSpan(tail)).ok());
  EXPECT_TRUE(std::equal(tail.begin(), tail.begin() + 60, data.end() - 60));
  EXPECT_TRUE(std::all_of(tail.begin() + 60, tail.end(), [](uint8_t b) { return b == 0; }));
}

TEST(DramDeviceTest, PartialLastPageServedToCapacity) {
  sim::Engine engine;
  const uint64_t capacity = 2 * kPage + 100;
  DramDevice dram(&engine, capacity);
  EXPECT_EQ(dram.capacity(), capacity);

  const Bytes data = Pattern(100, 3);
  ASSERT_TRUE(dram.Write(capacity - 100, ByteSpan(data)).ok());
  Bytes out(100);
  ASSERT_TRUE(dram.Read(capacity - 100, MutableByteSpan(out)).ok());
  EXPECT_EQ(out, data);

  Bytes one(1);
  EXPECT_EQ(dram.Write(capacity, ByteSpan(one)).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dram.Read(capacity, MutableByteSpan(one)).code(), StatusCode::kOutOfRange);
  Bytes two(2);
  EXPECT_EQ(dram.Write(capacity - 1, ByteSpan(two)).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dram.Read(capacity - 1, MutableByteSpan(two)).code(), StatusCode::kOutOfRange);
  // An address whose sum with the length wraps past 2^64 is out of range too.
  Bytes eight(8);
  EXPECT_EQ(dram.Write(UINT64_MAX - 3, ByteSpan(eight)).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dram.Read(UINT64_MAX - 3, MutableByteSpan(eight)).code(), StatusCode::kOutOfRange);
}

TEST(DramDeviceTest, ZeroCapacityRejectsAnyNonEmptyAccess) {
  sim::Engine engine;
  DramDevice hbm(&engine, 0, HbmParams());
  EXPECT_EQ(hbm.capacity(), 0u);
  Bytes one(1);
  for (uint64_t addr : {uint64_t{0}, kPage, UINT64_MAX}) {
    EXPECT_EQ(hbm.Write(addr, ByteSpan(one)).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(hbm.Read(addr, MutableByteSpan(one)).code(), StatusCode::kOutOfRange);
  }
  EXPECT_TRUE(hbm.Read(0, MutableByteSpan()).ok());
}

TEST(DramDeviceTest, EachAccessAdvancesByAccessTime) {
  sim::Engine engine;
  for (DramParams params : {DramParams(), HbmParams()}) {
    DramDevice dram(&engine, 4 * kPage, params);
    for (uint64_t size : {uint64_t{1}, uint64_t{64}, kPage, 3 * kPage - 1}) {
      const Bytes data = Pattern(size, 9);
      sim::SimTime before = engine.Now();
      ASSERT_TRUE(dram.Write(kPage / 2, ByteSpan(data)).ok());
      EXPECT_EQ(engine.Now() - before, dram.AccessTime(size));

      Bytes out(size);
      before = engine.Now();
      ASSERT_TRUE(dram.Read(kPage / 2, MutableByteSpan(out)).ok());
      EXPECT_EQ(engine.Now() - before, dram.AccessTime(size));
      EXPECT_EQ(out, data);
    }
  }
}

// -- ObjectStore -------------------------------------------------------------

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() : ctrl_(&engine_) {
    nsid_ = ctrl_.AddNamespace(16384);  // 64 MiB flash
    ObjectStoreConfig config;
    config.dram_bytes = 1 << 20;
    config.hbm_bytes = 256 << 10;
    config.nvme_nsid = nsid_;
    store_ = std::make_unique<ObjectStore>(&engine_, &ctrl_, config);
  }

  // A segment under the next test-chosen id.
  Result<SegmentId> Create(uint64_t size, SegmentHints hints) {
    const SegmentId id(0xC0FFEE, next_id_++);
    RETURN_IF_ERROR(store_->CreateWithId(id, size, hints));
    return id;
  }

  sim::Engine engine_;
  nvme::Controller ctrl_;
  uint32_t nsid_ = 0;
  std::unique_ptr<ObjectStore> store_;
  uint64_t next_id_ = 1;
};

TEST_F(ObjectStoreTest, EphemeralLandsInDram) {
  auto id = Create(4096, {});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kDram);
}

TEST_F(ObjectStoreTest, DurableLandsOnNvme) {
  auto id = Create(4096, {.durable = true});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kNvme);
}

TEST_F(ObjectStoreTest, PerformanceCriticalPrefersHbm) {
  auto id = Create(4096, {.performance_critical = true});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kHbm);
}

TEST_F(ObjectStoreTest, SpillsToNvmeWhenDramFull) {
  // DRAM 1 MiB + HBM 256 KiB; a 2 MiB ephemeral segment must spill.
  auto id = Create(2 << 20, {});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kNvme);
}

TEST_F(ObjectStoreTest, WriteReadRoundTripAllTiers) {
  for (SegmentHints hints :
       {SegmentHints{}, SegmentHints{.durable = true}, SegmentHints{.performance_critical = true}}) {
    auto id = Create(10000, hints);
    ASSERT_TRUE(id.ok());
    Bytes data = Pattern(5000, 42);
    ASSERT_TRUE(store_->Write(*id, 2500, ByteSpan(data.data(), data.size())).ok());
    auto read = store_->Read(*id, 2500, 5000);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, data);
  }
}

TEST_F(ObjectStoreTest, ZeroLengthReadsAnswerOkOnEveryTier) {
  // Flash answers a zero-length read as DRAM and HBM do: OK and no bytes,
  // at LBA-aligned and unaligned offsets and at the segment's end, and
  // without an NVMe command. Read and ReadInto agree.
  for (SegmentHints hints :
       {SegmentHints{}, SegmentHints{.performance_critical = true}, SegmentHints{.durable = true}}) {
    auto id = Create(3 * nvme::kLbaSize, hints);
    ASSERT_TRUE(id.ok());
    for (const uint64_t offset : {0u, 100u, 4096u, 5000u, 8192u, 3u * nvme::kLbaSize}) {
      SCOPED_TRACE(offset);
      const sim::SimTime before = engine_.Now();
      auto read = store_->Read(*id, offset, 0);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_TRUE(read->empty());
      EXPECT_TRUE(store_->ReadInto(*id, offset, MutableByteSpan()).ok());
      if (hints.durable) {
        EXPECT_EQ(engine_.Now() - before, 2 * SegmentTable::kLookupCost);  // translations only
      }
    }
  }
  EXPECT_EQ(ctrl_.counters().Get("nvme_reads"), 0u);
}

TEST_F(ObjectStoreTest, ZeroLengthWritesAnswerOkOnEveryTier) {
  // Flash answers a zero-length write as DRAM and HBM do: OK, at
  // LBA-aligned and unaligned offsets and at the segment's end, with no
  // NVMe command (no read-modify-write of a covering LBA) and no time past
  // the translation.
  for (SegmentHints hints :
       {SegmentHints{}, SegmentHints{.performance_critical = true}, SegmentHints{.durable = true}}) {
    auto id = Create(3 * nvme::kLbaSize, hints);
    ASSERT_TRUE(id.ok());
    for (const uint64_t offset : {0u, 100u, 4096u, 5000u, 8192u, 3u * nvme::kLbaSize}) {
      SCOPED_TRACE(offset);
      const sim::SimTime before = engine_.Now();
      const Status written = store_->Write(*id, offset, ByteSpan());
      EXPECT_TRUE(written.ok()) << written.ToString();
      if (hints.durable) {
        EXPECT_EQ(engine_.Now() - before, SegmentTable::kLookupCost);  // the translation only
      }
    }
  }
  EXPECT_EQ(ctrl_.counters().Get("nvme_reads"), 0u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_writes"), 0u);
}

TEST_F(ObjectStoreTest, BoundsEnforced) {
  Bytes data(50);
  Bytes out(8);
  for (SegmentHints hints :
       {SegmentHints{}, SegmentHints{.performance_critical = true}, SegmentHints{.durable = true}}) {
    // The first segment of each tier sits at base 0, so a wrapped offset
    // that slipped past the check would land just before the tier.
    auto id = Create(100, hints);
    ASSERT_TRUE(id.ok());
    EXPECT_FALSE(store_->Write(*id, 60, ByteSpan(data.data(), data.size())).ok());
    EXPECT_FALSE(store_->Read(*id, 90, 20).ok());
    EXPECT_TRUE(store_->Read(*id, 92, 8).ok());

    // Offsets near 2^64: offset + length wraps to a small sum that an
    // additive bounds check would accept.
    for (uint64_t offset : {UINT64_MAX - 3, UINT64_MAX - 49, UINT64_MAX}) {
      EXPECT_EQ(store_->Write(*id, offset, ByteSpan(data.data(), data.size())).code(),
                StatusCode::kOutOfRange);
      EXPECT_EQ(store_->Read(*id, offset, 8).status().code(), StatusCode::kOutOfRange);
      EXPECT_EQ(store_->ReadInto(*id, offset, MutableByteSpan(out)).code(),
                StatusCode::kOutOfRange);
    }
    EXPECT_EQ(store_->Read(*id, 8, UINT64_MAX - 7).status().code(), StatusCode::kOutOfRange);
  }
}

TEST_F(ObjectStoreTest, DeleteReleasesSpace) {
  ObjectStoreConfig tiny;
  tiny.dram_bytes = 8192;
  tiny.hbm_bytes = 0;
  tiny.nvme_nsid = nsid_;
  // Separate store with a tiny DRAM so exhaustion is easy to hit.
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  tiny.nvme_nsid = ctrl.AddNamespace(1024);
  ObjectStore store(&engine, &ctrl, tiny);
  const SegmentId a(1, 1);
  ASSERT_TRUE(store.CreateWithId(a, 8192, {}).ok());
  EXPECT_EQ(store.Describe(a)->location, Location::kDram);
  ASSERT_TRUE(store.Delete(a).ok());
  const SegmentId b(1, 2);
  ASSERT_TRUE(store.CreateWithId(b, 8192, {}).ok());
  EXPECT_EQ(store.Describe(b)->location, Location::kDram);
}

TEST_F(ObjectStoreTest, RecoveryKeepsDurableDropsEphemeral) {
  auto durable = Create(4096, {.durable = true});
  auto ephemeral = Create(4096, {});
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE(ephemeral.ok());
  Bytes data = Pattern(4096, 77);
  ASSERT_TRUE(store_->Write(*durable, 0, ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(store_->Checkpoint().ok());

  auto recovered = store_->Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 1u);
  EXPECT_EQ(*store_->Read(*durable, 0, 4096), data);
  EXPECT_EQ(store_->Read(*ephemeral, 0, 1).status().code(), StatusCode::kNotFound);
  // New creations keep working after recovery (allocators rebuilt).
  EXPECT_TRUE(Create(4096, {.durable = true}).ok());
}

TEST_F(ObjectStoreTest, RecoverRejectsABootLengthThatWouldWrap) {
  ASSERT_TRUE(Create(4096, {.durable = true}).ok());
  ASSERT_TRUE(store_->Checkpoint().ok());
  // A boot LBA whose length field wraps when the 8-byte prefix is added
  // (a remote BlockOp::kWrite to LBA 0 can put it there).
  Bytes block(nvme::kLbaSize, 0);
  Bytes length;
  PutU64(length, UINT64_MAX - 3);
  std::copy(length.begin(), length.end(), block.begin());
  ASSERT_TRUE(ctrl_.Write(nsid_, 0, ByteSpan(block.data(), block.size())).ok());
  Result<uint64_t> recovered = store_->Recover();
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(recovered.status().message(), "snapshot length exceeds boot area");
}

TEST_F(ObjectStoreTest, TranslationCostCharged) {
  auto id = Create(64, {});
  ASSERT_TRUE(id.ok());
  const auto before = engine_.Now();
  ASSERT_TRUE(store_->Read(*id, 0, 64).ok());
  EXPECT_GE(engine_.Now() - before, SegmentTable::kLookupCost);
  EXPECT_GE(store_->counters().Get("translations"), 1u);
}

TEST_F(ObjectStoreTest, EveryAccessPaysOneTranslation) {
  auto id = Create(64, {});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->Read(*id, 0, 64).ok());
  EXPECT_EQ(store_->counters().Get("translations"), 1u);

  // Every data access translates once, even one that fails its bounds
  // check. Describe is not an access.
  Bytes data(64, 1);
  Bytes out(64);
  ASSERT_TRUE(store_->ReadInto(*id, 0, MutableByteSpan(out)).ok());
  ASSERT_TRUE(store_->Write(*id, 0, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(store_->Read(*id, 64, 1).status().code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(store_->Describe(*id).ok());
  EXPECT_EQ(store_->counters().Get("translations"), 4u);

  // An unmapped id pays the translation and nothing more.
  const auto unmapped = engine_.Now();
  EXPECT_EQ(store_->Read(SegmentId(0x5757, 1), 0, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine_.Now() - unmapped, SegmentTable::kLookupCost);
  EXPECT_EQ(store_->counters().Get("translations"), 5u);
}

// -- VM baseline ---------------------------------------------------------

TEST(PageTableTest, WalkTranslates4K) {
  PageTable pt;
  ASSERT_TRUE(pt.MapPage(0x1000, 0x40000, PageSize::k4K).ok());
  auto walk = pt.WalkTranslate(0x1234);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->paddr, 0x40234u);
  EXPECT_EQ(walk->levels_touched, 4);
}

TEST(PageTableTest, WalkTranslates2M) {
  PageTable pt;
  ASSERT_TRUE(pt.MapPage(0, 0x200000, PageSize::k2M).ok());
  auto walk = pt.WalkTranslate(0x12345);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->paddr, 0x200000u + 0x12345u);
  EXPECT_EQ(walk->levels_touched, 3);  // stops at the PD leaf
}

TEST(PageTableTest, UnmappedFaults) {
  PageTable pt;
  EXPECT_EQ(pt.WalkTranslate(0xdead000).status().code(), StatusCode::kNotFound);
}

TEST(PageTableTest, DoubleMapRejected) {
  PageTable pt;
  ASSERT_TRUE(pt.MapPage(0x1000, 0x2000, PageSize::k4K).ok());
  EXPECT_FALSE(pt.MapPage(0x1000, 0x3000, PageSize::k4K).ok());
}

TEST(PageTableTest, MapRangeCoversEveryPage) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(0, 0x100000, 16 * 4096, PageSize::k4K).ok());
  EXPECT_EQ(pt.MappedPages(), 16u);
  for (uint64_t off = 0; off < 16 * 4096; off += 4096) {
    ASSERT_TRUE(pt.WalkTranslate(off).ok());
  }
}

TEST(TlbTest, HitAfterInsert) {
  Tlb tlb(64, 4);
  tlb.Insert(0x5000, 0x9000, PageSize::k4K);
  Tlb::CachedTranslation out;
  EXPECT_TRUE(tlb.Lookup(0x5abc, &out));
  EXPECT_EQ(out.paddr, 0x9000u);
  EXPECT_EQ(tlb.hits(), 1u);
}

TEST(TlbTest, CapacityEviction) {
  Tlb tlb(4, 4);  // one set, 4 ways
  for (uint64_t i = 0; i < 5; ++i) {
    tlb.Insert(i * 4096, i * 8192, PageSize::k4K);
  }
  Tlb::CachedTranslation out;
  // The LRU entry (page 0) was evicted.
  EXPECT_FALSE(tlb.Lookup(0, &out));
  EXPECT_TRUE(tlb.Lookup(4 * 4096, &out));
}

TEST(VirtualMemoryTest, TlbHitIsCheapWalkIsExpensive) {
  VirtualMemory vm;
  ASSERT_TRUE(vm.MapRange(0, 0, 1 << 20, PageSize::k4K).ok());
  auto cold = vm.Translate(0x3000);
  ASSERT_TRUE(cold.ok());
  auto warm = vm.Translate(0x3008);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->l1_hit);
  EXPECT_GT(cold->cost, warm->cost * 5);
}

// The E4 claim in miniature: with a working set far beyond TLB reach, the
// mean VM translation cost exceeds the flat segment-table cost.
TEST(VirtualMemoryTest, TlbThrashingExceedsSegmentLookupCost) {
  VirtualMemory vm;
  const uint64_t working_set = 1ull << 30;  // 1 GiB of 4K pages
  ASSERT_TRUE(vm.MapRange(0, 0, working_set, PageSize::k4K).ok());
  Rng rng(17);
  uint64_t total_cost = 0;
  constexpr int kAccesses = 20000;
  for (int i = 0; i < kAccesses; ++i) {
    auto t = vm.Translate(rng.Uniform(working_set));
    ASSERT_TRUE(t.ok());
    total_cost += t->cost;
  }
  const double mean = static_cast<double>(total_cost) / kAccesses;
  EXPECT_GT(mean, static_cast<double>(SegmentTable::kLookupCost) * 3);
}

TEST(VirtualMemoryTest, HugePagesReduceMissCost) {
  VirtualMemory vm4k;
  VirtualMemory vm2m;
  const uint64_t ws = 1ull << 30;
  ASSERT_TRUE(vm4k.MapRange(0, 0, ws, PageSize::k4K).ok());
  ASSERT_TRUE(vm2m.MapRange(0, 0, ws, PageSize::k2M).ok());
  Rng rng_a(21);
  Rng rng_b(21);
  uint64_t cost4k = 0;
  uint64_t cost2m = 0;
  for (int i = 0; i < 20000; ++i) {
    cost4k += vm4k.Translate(rng_a.Uniform(ws))->cost;
    cost2m += vm2m.Translate(rng_b.Uniform(ws))->cost;
  }
  EXPECT_LT(cost2m, cost4k);
}

}  // namespace
}  // namespace hyperion::mem
