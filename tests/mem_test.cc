// Unit + property tests for the single-level store: allocator, segment
// table (incl. persistence/recovery), object store placement/migration, and
// the page-based VM baseline it is measured against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

  sim::Engine engine_;
  nvme::Controller ctrl_;
  uint32_t nsid_ = 0;
  std::unique_ptr<ObjectStore> store_;
};

TEST_F(ObjectStoreTest, EphemeralLandsInDram) {
  auto id = store_->Create(4096, {});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kDram);
}

TEST_F(ObjectStoreTest, DurableLandsOnNvme) {
  auto id = store_->Create(4096, {.durable = true});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kNvme);
}

TEST_F(ObjectStoreTest, PerformanceCriticalPrefersHbm) {
  auto id = store_->Create(4096, {.performance_critical = true});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kHbm);
}

TEST_F(ObjectStoreTest, SpillsToNvmeWhenDramFull) {
  // DRAM 1 MiB + HBM 256 KiB; a 2 MiB ephemeral segment must spill.
  auto id = store_->Create(2 << 20, {});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kNvme);
}

TEST_F(ObjectStoreTest, WriteReadRoundTripAllTiers) {
  for (SegmentHints hints :
       {SegmentHints{}, SegmentHints{.durable = true}, SegmentHints{.performance_critical = true}}) {
    auto id = store_->Create(10000, hints);
    ASSERT_TRUE(id.ok());
    Bytes data = Pattern(5000, 42);
    ASSERT_TRUE(store_->Write(*id, 2500, ByteSpan(data.data(), data.size())).ok());
    auto read = store_->Read(*id, 2500, 5000);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, data);
  }
}

TEST_F(ObjectStoreTest, BoundsEnforced) {
  Bytes data(50);
  Bytes out(8);
  for (SegmentHints hints :
       {SegmentHints{}, SegmentHints{.performance_critical = true}, SegmentHints{.durable = true}}) {
    // The first segment of each tier sits at base 0, so a wrapped offset
    // that slipped past the check would land just before the tier.
    auto id = store_->Create(100, hints);
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

TEST_F(ObjectStoreTest, MigratePreservesContents) {
  auto id = store_->Create(8192, {});
  ASSERT_TRUE(id.ok());
  Bytes data = Pattern(8192, 5);
  ASSERT_TRUE(store_->Write(*id, 0, ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(store_->Migrate(*id, Location::kNvme).ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kNvme);
  EXPECT_EQ(*store_->Read(*id, 0, 8192), data);
  ASSERT_TRUE(store_->Migrate(*id, Location::kHbm).ok());
  EXPECT_EQ(*store_->Read(*id, 0, 8192), data);
}

TEST_F(ObjectStoreTest, DurableSegmentCannotLeaveNvme) {
  auto id = store_->Create(4096, {.durable = true});
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(store_->Migrate(*id, Location::kDram).ok());
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
  auto a = store.Create(8192, {});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(store.Describe(*a)->location, Location::kDram);
  ASSERT_TRUE(store.Delete(*a).ok());
  auto b = store.Create(8192, {});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(store.Describe(*b)->location, Location::kDram);
}

TEST_F(ObjectStoreTest, RecoveryKeepsDurableDropsEphemeral) {
  auto durable = store_->Create(4096, {.durable = true});
  auto ephemeral = store_->Create(4096, {});
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
  EXPECT_TRUE(store_->Create(4096, {.durable = true}).ok());
}

TEST_F(ObjectStoreTest, TranslationCostCharged) {
  auto id = store_->Create(64, {});
  ASSERT_TRUE(id.ok());
  const auto before = engine_.Now();
  ASSERT_TRUE(store_->Read(*id, 0, 64).ok());
  EXPECT_GE(engine_.Now() - before, SegmentTable::kLookupCost);
  EXPECT_GE(store_->counters().Get("translations"), 1u);
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
