// Page-based virtual-memory baseline for experiment E4.
//
// The paper (§2.1) argues that CPU-centric virtual memory — multi-level
// page tables, TLBs, walk caches — is a major source of complexity and
// overhead that accelerators inherit when integrated into a host's address
// space, and that Hyperion's object-granular segment table avoids it. To
// measure that claim we implement the thing being avoided: an x86-64-style
// 4-level radix page table (48-bit VA, 4 KiB and 2 MiB leaves), a two-level
// set-associative TLB with LRU replacement, and a page-walk cache covering
// the top levels. Translate() reports the modelled latency of each access
// so benches can compare cycles-per-translation against
// SegmentTable::kLookupCost.

#ifndef HYPERION_SRC_MEM_VM_BASELINE_H_
#define HYPERION_SRC_MEM_VM_BASELINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/sim/time.h"

namespace hyperion::mem {

enum class PageSize : uint8_t { k4K, k2M };

constexpr uint64_t PageBytes(PageSize ps) {
  return ps == PageSize::k4K ? 4096ull : 2ull * 1024 * 1024;
}

// Radix-512 page table, 4 levels (PML4 -> PDPT -> PD -> PT).
class PageTable {
 public:
  PageTable();

  // Maps the page containing `vaddr` to `paddr` (both aligned to the page
  // size). Fails if already mapped (or covered by a larger mapping).
  Status MapPage(uint64_t vaddr, uint64_t paddr, PageSize page_size);

  // Maps `length` bytes starting at `vaddr` to consecutive physical pages
  // starting at `paddr`, using the given page size throughout.
  Status MapRange(uint64_t vaddr, uint64_t paddr, uint64_t length, PageSize page_size);

  struct Walk {
    uint64_t paddr = 0;
    int levels_touched = 0;  // memory references the walk performed (1..4)
    PageSize page_size = PageSize::k4K;
  };
  // Full software walk (no TLB). kNotFound on unmapped addresses.
  Result<Walk> WalkTranslate(uint64_t vaddr) const;

  uint64_t MappedPages() const { return mapped_pages_; }

 private:
  struct Node;
  struct Entry {
    bool present = false;
    bool leaf = false;
    uint64_t paddr = 0;  // leaf: physical frame; interior: unused (node ptr below)
    std::unique_ptr<Node> child;
  };
  struct Node {
    std::array<Entry, 512> entries;
  };

  static int IndexAt(uint64_t vaddr, int level);  // level 3 = PML4 ... 0 = PT

  std::unique_ptr<Node> root_;
  uint64_t mapped_pages_ = 0;
};

// Set-associative TLB with per-set LRU.
class Tlb {
 public:
  Tlb(uint32_t entries, uint32_t ways);

  struct CachedTranslation {
    uint64_t vpn_base = 0;
    uint64_t paddr = 0;
    PageSize page_size = PageSize::k4K;
  };

  // Probes for the page containing vaddr.
  bool Lookup(uint64_t vaddr, CachedTranslation* out);
  void Insert(uint64_t vaddr, uint64_t page_paddr, PageSize page_size);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Way {
    bool valid = false;
    uint64_t tag = 0;  // vaddr >> page shift
    uint64_t paddr = 0;
    PageSize page_size = PageSize::k4K;
    uint64_t lru = 0;
  };

  uint32_t sets_;
  uint32_t ways_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<Way> slots_;  // sets_ * ways_
};

// The assembled MMU: L1/L2 TLBs + page-walk cache + PageTable.
class VirtualMemory {
 public:
  VirtualMemory();

  Status MapRange(uint64_t vaddr, uint64_t paddr, uint64_t length, PageSize page_size) {
    return table_.MapRange(vaddr, paddr, length, page_size);
  }

  struct Translation {
    uint64_t paddr = 0;
    sim::Duration cost = 0;
    bool l1_hit = false;
    bool l2_hit = false;
  };
  Result<Translation> Translate(uint64_t vaddr);

  uint64_t l1_hits() const { return l1_.hits(); }
  uint64_t l2_hits() const { return l2_.hits(); }
  uint64_t walks() const { return walks_; }

 private:
  PageTable table_;
  Tlb l1_;
  Tlb l2_;
  Tlb pwc_;  // caches PML4/PDPT levels, keyed on 1 GiB regions
  uint64_t walks_ = 0;
};

}  // namespace hyperion::mem

#endif  // HYPERION_SRC_MEM_VM_BASELINE_H_
