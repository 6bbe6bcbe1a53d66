#include "src/sim/engine.h"

#include <algorithm>

namespace hyperion::sim {

Engine::Engine()
    : slot_data_(std::make_unique_for_overwrite<Entry[]>(kSlotCount * kSlotCap)),
      spill_(kSlotCount) {}

Engine::~Engine() {
  // Destroy any still-pending callables. Their nodes return to the free
  // list and are freed with their slabs. Drained entries live only in
  // drain_buf_/aux (the slot region is cleared when pulled), so there is no
  // overlap with the region sweep.
  for (size_t i = drain_pos_; i < drain_cnt_; ++i) {
    drain_base_[i].ops->destroy(this, drain_base_[i].storage);
  }
  for (size_t p = 0; p < slot_len_.size(); ++p) {
    for (size_t i = 0; i < slot_len_[p]; ++i) {
      Entry& entry = slot_data_[p * kSlotCap + i];
      entry.ops->destroy(this, entry.storage);
    }
  }
  for (auto& spill : spill_) {
    for (Entry& entry : spill) {
      entry.ops->destroy(this, entry.storage);
    }
  }
  for (Entry& entry : heap_) {
    entry.ops->destroy(this, entry.storage);
  }
}

void Engine::NodeInvokeDestroy(Engine* engine, void* s) {
  Event* node;
  std::memcpy(&node, s, sizeof(node));
  node->ops->invoke_destroy(node->storage);
  engine->ReleaseEvent(node);
}

void Engine::NodeDestroy(Engine* engine, void* s) {
  Event* node;
  std::memcpy(&node, s, sizeof(node));
  node->ops->destroy(node->storage);
  engine->ReleaseEvent(node);
}

void Engine::ErasedInvokeDestroy(Engine* /*engine*/, void* s) {
  const EventFn::Ops* inner;
  std::memcpy(&inner, s, sizeof(inner));
  // Copy the trivially copyable payload to the stack before invoking: the
  // callback may schedule into the express lane and recycle this entry.
  alignas(std::max_align_t) unsigned char local[EventFn::kTrivialBytes];
  std::memcpy(local, static_cast<unsigned char*>(s) + sizeof(inner), EventFn::kTrivialBytes);
  inner->invoke_destroy(local);
}

void Engine::ErasedDestroy(Engine* /*engine*/, void* s) {
  const EventFn::Ops* inner;
  std::memcpy(&inner, s, sizeof(inner));
  inner->destroy(static_cast<unsigned char*>(s) + sizeof(inner));
}

Engine::Event* Engine::AllocEventSlow() {
  auto slab = std::make_unique<Event[]>(kSlabEvents);
  Event* events = slab.get();
  slabs_.push_back(std::move(slab));
  ++stats_.pool_slabs;
  for (size_t i = 1; i < kSlabEvents; ++i) {
    NextFree(&events[i]) = free_list_;
    free_list_ = &events[i];
  }
  return &events[0];
}

void Engine::ScheduleErased(SimTime when, uint64_t band, uint64_t seq, Callback fn) {
  CHECK(fn.ops() != nullptr) << "scheduling an empty callback";
  Entry& entry = PlaceEntry(when, band, seq);
  const EventFn::Ops* inner = fn.ops();
  if (inner->trivial_small) [[likely]] {
    // Byte-relocate the small trivially copyable callable (plus its ops
    // pointer for dispatch) straight into the entry: no node, no free-list.
    std::memcpy(entry.storage, &inner, sizeof(inner));
    std::memcpy(entry.storage + sizeof(inner), fn.storage(), EventFn::kTrivialBytes);
    fn.DisarmTrivial();
    entry.ops = &kErasedEntryOps;
    ++stats_.inline_callbacks;
  } else {
    Event* node = AllocEvent();
    node->ops = fn.RelocateTo(node->storage);
    std::memcpy(entry.storage, &node, sizeof(node));
    entry.ops = &kNodeEntryOps;
    if (node->ops->inline_stored) {
      ++stats_.inline_callbacks;
    } else {
      ++stats_.boxed_callbacks;
    }
  }
  CommitEntry(entry);
}

// Hole-based sifts: move each displaced entry once into the hole instead of
// std::swap chains — with 64-byte entries a swap is three full-line copies.
void Engine::HeapPush(const Entry& entry) {
  size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Earlier(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
  heap_min_when_ = heap_.front().when;
}

void Engine::HeapPop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    heap_min_when_ = kNever;
    return;
  }
  size_t i = 0;
  while (true) {
    const size_t l = 2 * i + 1;
    if (l >= n) {
      break;
    }
    size_t c = l;
    const size_t r = l + 1;
    if (r < n && Earlier(heap_[r], heap_[l])) {
      c = r;
    }
    if (!Earlier(heap_[c], last)) {
      break;
    }
    heap_[i] = heap_[c];
    i = c;
  }
  heap_[i] = last;
  heap_min_when_ = heap_.front().when;
}

uint64_t Engine::FirstOccupiedAbs() const {
  const uint64_t base = now_ >> kSlotShift;
  const size_t p0 = static_cast<size_t>(base & kSlotMask);
  constexpr size_t nwords = kSlotCount / 64;
  size_t word = p0 >> 6;
  // Mask off slots before p0 in the first word; the circular distance math
  // below maps wrapped positions back to absolute slot numbers.
  uint64_t bits = occ_[word] & (~0ull << (p0 & 63));
  for (size_t scanned = 0; scanned <= nwords; ++scanned) {
    if (bits != 0) {
      const size_t p = ((word << 6) | static_cast<size_t>(std::countr_zero(bits))) &
                       static_cast<size_t>(kSlotMask);
      return base + ((p - p0) & kSlotMask);
    }
    word = word + 1 == nwords ? 0 : word + 1;
    bits = occ_[word];
  }
  return kNever;
}

// Insertion sort over small random keys takes ~n^2/4 data-dependent
// branches — a mispredict storm that dominates slot drains. Both sort
// paths therefore first scatter entries by the four sub-slot time bits
// (a branchless, stable counting sort) and then run insertion sort over
// the nearly-sorted result: the cleanup still enforces the exact
// (when, band, seq) order — the radix pass only has to be a good
// approximation — but its compare branches are now almost always
// not-taken and predict perfectly.

void Engine::SortInto(const Entry* src, size_t n, Entry* dst) const {
  if (n <= 2) [[unlikely]] {
    // Chained-timer workloads pull one event per slot; skip the bucket
    // machinery entirely.
    if (n == 0) {
      return;
    }
    if (n == 2 && Earlier(src[1], src[0])) {
      dst[0] = src[1];
      dst[1] = src[0];
      return;
    }
    std::memcpy(dst, src, n * sizeof(Entry));
    return;
  }
  constexpr uint32_t sh = kSlotShift - 4;
  uint32_t cnt[17] = {0};
  for (size_t i = 0; i < n; ++i) {
    ++cnt[((src[i].when >> sh) & 15) + 1];
  }
  for (size_t b = 1; b < 16; ++b) {
    cnt[b] += cnt[b - 1];
  }
  for (size_t i = 0; i < n; ++i) {
    dst[cnt[(src[i].when >> sh) & 15]++] = src[i];
  }
  for (size_t i = 1; i < n; ++i) {
    Entry tmp = dst[i];
    size_t j = i;
    while (j > 0 && Earlier(tmp, dst[j - 1])) {
      dst[j] = dst[j - 1];
      --j;
    }
    dst[j] = tmp;
  }
}

void Engine::SortRange(Entry* a, size_t n) const {
  if (n <= 1) {
    return;
  }
  constexpr size_t kRadixMax = 32;
  if (n <= kRadixMax) {
    Entry tmp[kRadixMax];
    std::memcpy(tmp, a, n * sizeof(Entry));
    SortInto(tmp, n, a);
    return;
  }
  std::sort(a, a + n, [](const Entry& x, const Entry& y) { return Earlier(x, y); });
}

void Engine::AbandonDrain() {
  // Return pending entries to their slot (region while it has room, spill
  // beyond); order within a slot does not matter.
  const size_t p = static_cast<size_t>(drain_slot_ & kSlotMask);
  Entry* region = slot_data_.get() + p * kSlotCap;
  for (size_t i = drain_pos_; i < drain_cnt_; ++i) {
    const uint32_t len = slot_len_[p];
    if (len < kSlotCap) {
      region[len] = drain_base_[i];
      slot_len_[p] = len + 1;
    } else {
      spill_[p].push_back(drain_base_[i]);
      ++spill_count_;
    }
  }
  if (drain_aux_active_) {
    drain_aux_.clear();
    drain_aux_active_ = false;
  }
  occ_[p >> 6] |= 1ull << (p & 63);
  drain_pos_ = 0;
  drain_cnt_ = 0;
}

bool Engine::EnsureWheelFront() {
  if (drain_pos_ != drain_cnt_ && !wheel_dirty_) [[likely]] {
    return true;
  }
  if (wheel_count_ == 0) [[unlikely]] {
    if (drain_aux_active_) {
      drain_aux_.clear();
      drain_aux_active_ = false;
    }
    drain_pos_ = 0;
    drain_cnt_ = 0;
    wheel_dirty_ = false;
    return false;
  }
  return ResolveWheelFront();
}

bool Engine::ResolveWheelFront() {
  wheel_dirty_ = false;
  const size_t in_drain = drain_cnt_ - drain_pos_;
  if (wheel_count_ == in_drain) {
    // Nothing pending in the slots themselves; the sorted drain is
    // authoritative (in_drain > 0 here since wheel_count_ > 0).
    return true;
  }
  const uint64_t first = FirstOccupiedAbs();
  if (in_drain > 0) {
    if (drain_slot_ < first) {
      return true;
    }
    const size_t p = static_cast<size_t>(first & kSlotMask);
    if (drain_slot_ == first) {
      // New arrivals landed in the slot being drained: gather pending +
      // arrivals (+ any spill) and re-sort.
      Entry* region = slot_data_.get() + p * kSlotCap;
      const size_t len = slot_len_[p];
      const bool spilled = spill_count_ != 0 && !spill_[p].empty();
      const size_t total = in_drain + len + (spilled ? spill_[p].size() : 0);
      if (!drain_aux_active_ && total <= kSlotCap) {
        Entry tmp[2 * kSlotCap];
        std::memcpy(tmp, drain_base_ + drain_pos_, in_drain * sizeof(Entry));
        std::memcpy(tmp + in_drain, region, len * sizeof(Entry));
        SortInto(tmp, total, drain_buf_);
        drain_base_ = drain_buf_;
        drain_pos_ = 0;
        drain_cnt_ = total;
      } else if (!drain_aux_active_) {
        drain_aux_.assign(drain_base_ + drain_pos_, drain_base_ + drain_cnt_);
        drain_aux_.insert(drain_aux_.end(), region, region + len);
        if (spilled) {
          drain_aux_.insert(drain_aux_.end(), spill_[p].begin(), spill_[p].end());
          spill_count_ -= spill_[p].size();
          spill_[p].clear();
        }
        drain_aux_active_ = true;
        drain_base_ = drain_aux_.data();
        drain_pos_ = 0;
        drain_cnt_ = drain_aux_.size();
        SortRange(drain_base_, drain_cnt_);
      } else {
        drain_aux_.insert(drain_aux_.end(), region, region + len);
        if (spilled) {
          drain_aux_.insert(drain_aux_.end(), spill_[p].begin(), spill_[p].end());
          spill_count_ -= spill_[p].size();
          spill_[p].clear();
        }
        drain_base_ = drain_aux_.data();
        drain_cnt_ = drain_aux_.size();
        SortRange(drain_base_ + drain_pos_, drain_cnt_ - drain_pos_);
      }
      slot_len_[p] = 0;
      occ_[p >> 6] &= ~(1ull << (p & 63));
      return true;
    }
    // An earlier slot became occupied (an over-horizon heap event ran and
    // scheduled below the drain): return the drain and re-pull.
    AbandonDrain();
  } else if (drain_aux_active_) {
    drain_aux_.clear();
    drain_aux_active_ = false;
  }
  // Pull slot `first`: radix-scatter the region into the hot drain buffer
  // and clear the slot (aux only when it spilled past the region).
  const size_t p = static_cast<size_t>(first & kSlotMask);
  Entry* region = slot_data_.get() + p * kSlotCap;
  const size_t len = slot_len_[p];
  if (spill_count_ != 0 && !spill_[p].empty()) [[unlikely]] {
    drain_aux_.assign(region, region + len);
    drain_aux_.insert(drain_aux_.end(), spill_[p].begin(), spill_[p].end());
    spill_count_ -= spill_[p].size();
    spill_[p].clear();
    drain_aux_active_ = true;
    drain_base_ = drain_aux_.data();
    drain_cnt_ = drain_aux_.size();
    SortRange(drain_base_, drain_cnt_);
  } else {
    drain_aux_active_ = false;
    SortInto(region, len, drain_buf_);
    drain_base_ = drain_buf_;
    drain_cnt_ = len;
  }
  slot_len_[p] = 0;
  drain_pos_ = 0;
  drain_slot_ = first;
  occ_[p >> 6] &= ~(1ull << (p & 63));
  return true;
}

Engine::Entry* Engine::ExtractMin(SimTime limit) {
  if (EnsureWheelFront()) [[likely]] {
    Entry* front = drain_base_ + drain_pos_;
    // heap_min_when_ is kNever when the heap is empty, so the fast `<`
    // filter usually settles the arbitration without touching the heap;
    // only a time tie needs the full (when, band, seq) compare.
    if (front->when < heap_min_when_ ||
        (front->when == heap_min_when_ &&
         (heap_.empty() || Earlier(*front, heap_.front())))) [[likely]] {
      if (front->when > limit) {
        return nullptr;
      }
      ++drain_pos_;
      --wheel_count_;
      --event_count_;
      return front;  // valid until the next ExtractMin or wheel resolve
    }
  }
  if (heap_.empty() || heap_.front().when > limit) {
    return nullptr;
  }
  pop_tmp_ = heap_.front();
  HeapPop();
  --event_count_;
  return &pop_tmp_;
}

SimTime Engine::PeekTime() const {
  SimTime best = heap_.empty() ? kNever : heap_.front().when;
  const size_t in_drain = drain_cnt_ - drain_pos_;
  if (in_drain > 0 && drain_base_[drain_pos_].when < best) {
    best = drain_base_[drain_pos_].when;
  }
  if (wheel_count_ > in_drain) {
    // Entries sit in the slots; every entry in the first occupied slot
    // precedes every entry in later slots, so scanning just that slot
    // yields the wheel minimum.
    const uint64_t first = FirstOccupiedAbs();
    if (first != kNever) {
      const size_t p = static_cast<size_t>(first & kSlotMask);
      const Entry* region = slot_data_.get() + p * kSlotCap;
      for (size_t i = 0; i < slot_len_[p]; ++i) {
        if (region[i].when < best) {
          best = region[i].when;
        }
      }
      for (const Entry& entry : spill_[p]) {
        if (entry.when < best) {
          best = entry.when;
        }
      }
    }
  }
  return best;
}

uint64_t Engine::RunLoop(SimTime limit) {
  uint64_t executed = 0;
  while (Entry* entry = ExtractMin(limit)) {
    now_ = entry->when;
    entry->ops->invoke_destroy(this, entry->storage);
    ++executed;
  }
  return executed;
}

uint64_t Engine::Run() { return RunLoop(kNever); }

uint64_t Engine::RunEvents(SimTime limit) { return RunLoop(limit); }

void Engine::AdvanceTo(SimTime t) {
  if (t > now_) {
    now_ = t;
  }
}

}  // namespace hyperion::sim
