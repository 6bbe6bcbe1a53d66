#include "src/mem/vm_baseline.h"

#include "src/common/check.h"

namespace hyperion::mem {

namespace {
constexpr int kLevelShift[4] = {12, 21, 30, 39};  // PT, PD, PDPT, PML4
constexpr uint64_t kVaMask = (1ull << 48) - 1;

// Translation costs, ns.
constexpr sim::Duration kL1TlbHit = 1;
constexpr sim::Duration kL2TlbHit = 6;
constexpr sim::Duration kWalkStep = 70;    // DRAM reference per level
constexpr sim::Duration kPwcHitStep = 3;   // page-walk-cache-served level
}  // namespace

PageTable::PageTable() : root_(std::make_unique<Node>()) {}

int PageTable::IndexAt(uint64_t vaddr, int level) {
  return static_cast<int>((vaddr >> kLevelShift[level]) & 0x1ff);
}

Status PageTable::MapPage(uint64_t vaddr, uint64_t paddr, PageSize page_size) {
  vaddr &= kVaMask;
  const uint64_t page = PageBytes(page_size);
  if (vaddr % page != 0 || paddr % page != 0) {
    return InvalidArgument("unaligned mapping");
  }
  const int leaf_level = page_size == PageSize::k4K ? 0 : 1;
  Node* node = root_.get();
  for (int level = 3; level > leaf_level; --level) {
    Entry& e = node->entries[static_cast<size_t>(IndexAt(vaddr, level))];
    if (e.present && e.leaf) {
      return AlreadyExists("covered by a larger mapping");
    }
    if (!e.present) {
      e.present = true;
      e.child = std::make_unique<Node>();
    }
    node = e.child.get();
  }
  Entry& leaf = node->entries[static_cast<size_t>(IndexAt(vaddr, leaf_level))];
  if (leaf.present) {
    return AlreadyExists("page already mapped");
  }
  leaf.present = true;
  leaf.leaf = true;
  leaf.paddr = paddr;
  ++mapped_pages_;
  return Status::Ok();
}

Status PageTable::MapRange(uint64_t vaddr, uint64_t paddr, uint64_t length, PageSize page_size) {
  const uint64_t page = PageBytes(page_size);
  if (length == 0 || length % page != 0) {
    return InvalidArgument("length must be a multiple of the page size");
  }
  for (uint64_t off = 0; off < length; off += page) {
    RETURN_IF_ERROR(MapPage(vaddr + off, paddr + off, page_size));
  }
  return Status::Ok();
}

Result<PageTable::Walk> PageTable::WalkTranslate(uint64_t vaddr) const {
  const uint64_t va = vaddr & kVaMask;
  const Node* node = root_.get();
  Walk walk;
  for (int level = 3; level >= 0; --level) {
    ++walk.levels_touched;
    const Entry& e = node->entries[static_cast<size_t>(IndexAt(va, level))];
    if (!e.present) {
      return NotFound("page fault: unmapped address");
    }
    if (e.leaf) {
      walk.page_size = level == 0 ? PageSize::k4K : PageSize::k2M;
      const uint64_t page = PageBytes(walk.page_size);
      walk.paddr = e.paddr + (va & (page - 1));
      return walk;
    }
    node = e.child.get();
  }
  return Internal("page table walk fell through");
}

Tlb::Tlb(uint32_t entries, uint32_t ways) : sets_(entries / ways), ways_(ways) {
  CHECK_GT(ways, 0u);
  CHECK_EQ(entries % ways, 0u);
  CHECK_GT(sets_, 0u);
  slots_.resize(entries);
}

bool Tlb::Lookup(uint64_t vaddr, CachedTranslation* out) {
  // Probe both page sizes; a real TLB does this with parallel arrays.
  for (PageSize ps : {PageSize::k4K, PageSize::k2M}) {
    const uint64_t tag = vaddr / PageBytes(ps);
    const uint32_t set = static_cast<uint32_t>(tag) % sets_;
    for (uint32_t w = 0; w < ways_; ++w) {
      Way& way = slots_[set * ways_ + w];
      if (way.valid && way.page_size == ps && way.tag == tag) {
        way.lru = ++tick_;
        ++hits_;
        out->vpn_base = tag * PageBytes(ps);
        out->paddr = way.paddr;
        out->page_size = ps;
        return true;
      }
    }
  }
  ++misses_;
  return false;
}

void Tlb::Insert(uint64_t vaddr, uint64_t page_paddr, PageSize page_size) {
  const uint64_t tag = vaddr / PageBytes(page_size);
  const uint32_t set = static_cast<uint32_t>(tag) % sets_;
  Way* victim = &slots_[set * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    Way& way = slots_[set * ways_ + w];
    if (!way.valid) {
      victim = &way;
      break;
    }
    if (way.lru < victim->lru) {
      victim = &way;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->paddr = page_paddr;
  victim->page_size = page_size;
  victim->lru = ++tick_;
}

VirtualMemory::VirtualMemory()
    : l1_(64, 4),       // 64-entry, 4-way L1 DTLB
      l2_(1536, 12),    // 1536-entry, 12-way STLB
      pwc_(32, 4) {}    // page-walk cache over 1 GiB regions

Result<VirtualMemory::Translation> VirtualMemory::Translate(uint64_t vaddr) {
  Translation t;
  Tlb::CachedTranslation cached;
  if (l1_.Lookup(vaddr, &cached)) {
    t.l1_hit = true;
    t.cost = kL1TlbHit;
    t.paddr = cached.paddr + (vaddr - cached.vpn_base);
    return t;
  }
  if (l2_.Lookup(vaddr, &cached)) {
    t.l2_hit = true;
    t.cost = kL2TlbHit;
    t.paddr = cached.paddr + (vaddr - cached.vpn_base);
    l1_.Insert(cached.vpn_base, cached.paddr, cached.page_size);
    return t;
  }
  // Full walk. The PWC can serve the PML4+PDPT levels for recently walked
  // 1 GiB regions, turning a 4-reference walk into ~2 references.
  ++walks_;
  ASSIGN_OR_RETURN(PageTable::Walk walk, table_.WalkTranslate(vaddr));
  Tlb::CachedTranslation pwc_hit;
  const uint64_t region = vaddr >> 30 << 30;  // 1 GiB granule
  sim::Duration cost = kL2TlbHit;  // both TLB probes missed first
  int steps = walk.levels_touched;
  if (pwc_.Lookup(region, &pwc_hit)) {
    const int cached_levels = std::min(steps, 2);
    cost += static_cast<sim::Duration>(cached_levels) * kPwcHitStep;
    steps -= cached_levels;
  } else {
    pwc_.Insert(region, 0, PageSize::k4K);
  }
  cost += static_cast<sim::Duration>(steps) * kWalkStep;
  t.cost = cost;
  t.paddr = walk.paddr;
  const uint64_t page = PageBytes(walk.page_size);
  const uint64_t vpn_base = vaddr / page * page;
  const uint64_t page_paddr = walk.paddr - (vaddr - vpn_base);
  l2_.Insert(vpn_base, page_paddr, walk.page_size);
  l1_.Insert(vpn_base, page_paddr, walk.page_size);
  return t;
}

}  // namespace hyperion::mem
