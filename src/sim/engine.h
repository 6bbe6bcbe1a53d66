// Deterministic discrete-event simulation engine.
//
// Components schedule closures at absolute or relative virtual times; the
// engine executes them in explicit key order. Every pending event carries a
// 24-byte ordering key (when, band, seq):
//
//   * locally scheduled events sort in (time, insertion-order) order, which
//     makes runs bit-stable regardless of container iteration quirks;
//   * cross-shard messages (ScheduleMessage) carry a caller-provided
//     (source, per-source seq) key in a band that sorts *before* local
//     events at the same timestamp. The key is a property of the message,
//     not of when a barrier happened to deliver it, so execution order is
//     invariant under shard layout and epoch-window boundaries — the
//     parallel layer leans on this (see parallel.h).
//
// Hot-path design (PR 2, rebuilt in PR 7): the engine is on every modelled
// request's path, so the ready queue is a cache-line-per-event SoA layout:
//
//   * A pending event is one 64-byte Entry: the full ordering key, an ops
//     pointer, and 32 bytes of payload storage. Trivially copyable
//     callables up to 32 bytes — the common capture profile of model
//     timers and completions — live *inside the entry*: scheduling writes
//     one line at the slot tail, execution reads it back, and no node,
//     freelist, or heap allocation is ever touched.
//   * Larger or non-trivial callables go to a slab-pooled 128-byte node
//     (ops + 112 bytes inline storage in the leading line); only captures
//     beyond 112 bytes fall back to a heap box.
//   * A timing wheel (power-of-two slots x slot width) absorbs near-future
//     events into a flat calendar arena: one contiguous Entry region of
//     kSlotCap lines per slot (vector spill beyond that), an L1-resident
//     length array, and an occupancy bitmap scanned by word. Pulling the
//     front slot radix-scatters its region by sub-slot time bits into a
//     small L1 drain buffer (an insertion-sort cleanup pass enforces exact
//     key order, so the scatter only has to be approximate — its job is
//     killing the compare-branch mispredicts), then clears the slot, so
//     steady-state extraction is pop-from-sorted-array guarded by a single
//     dirty flag. Arrivals that target the slot being drained append to
//     the live buffer directly when they sort last (the chained-timer
//     express lane). Events beyond the wheel horizon sit in a binary heap
//     of entries and are merged by key at extraction via a cached heap-min
//     timestamp.
//
// All of it is behaviour-preserving for sequential users: execution order
// is exactly the (time, seq) order of the original heap engine, which the
// PR-1 determinism regression pins bit-identically. The wheel geometry is
// fixed (kSlotShift, kSlotCount); bench_engine measures the engine against
// a replica of that original heap engine.

#ifndef HYPERION_SRC_SIM_ENGINE_H_
#define HYPERION_SRC_SIM_ENGINE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/time.h"

namespace hyperion::sim {

// Type-erased move-only callable with inline storage for small captures.
// Drop-in for the engine's former std::function<void()> callback type.
// Sized so a sharded-RPC send closure (BufferChain + completion
// std::function + two pointers) stays inline in an event node.
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 112;
  // Callables at most this big, trivially copyable and sufficiently
  // aligned, can be byte-relocated straight into a ready-queue entry.
  static constexpr size_t kTrivialBytes = 24;

  struct Ops {
    void (*invoke)(void* storage);
    void (*invoke_destroy)(void* storage);  // fused run-once path
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void* storage);
    bool inline_stored;
    // True when the callable can be relocated with memcpy and needs no
    // destructor: sizeof <= kTrivialBytes, trivially copyable, align <= 8.
    bool trivial_small;
  };

  // Constructs a callable of type F directly into `storage` (which must
  // provide kInlineBytes of max-aligned space) and returns its ops table.
  template <typename F>
  static const Ops* ConstructAt(void* storage, F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (Inlinable<Fn>()) {
      ::new (storage) Fn(std::forward<F>(f));
      return &InlineOps<Fn>::kOps;
    } else {
      *static_cast<Fn**>(storage) = new Fn(std::forward<F>(f));
      return &BoxedOps<Fn>::kOps;
    }
  }

  EventFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    ops_ = ConstructAt(storage_, std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(std::move(other)); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }
  // True when the callable lives in the inline storage (no heap box).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_stored; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Relocates the callable into `storage` (kInlineBytes, max-aligned) and
  // empties this EventFn. Returns the ops table now owning `storage`.
  const Ops* RelocateTo(void* storage) {
    const Ops* ops = ops_;
    ops->relocate(storage, storage_);
    ops_ = nullptr;
    return ops;
  }

  const Ops* ops() const { return ops_; }
  const void* storage() const { return storage_; }
  void DisarmTrivial() { ops_ = nullptr; }  // after a memcpy relocation

 private:
  template <typename Fn>
  static constexpr bool Inlinable() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }
  template <typename Fn>
  static constexpr bool TrivialSmall() {
    return sizeof(Fn) <= kTrivialBytes && std::is_trivially_copyable_v<Fn> && alignof(Fn) <= 8;
  }

  template <typename Fn>
  struct InlineOps {
    static Fn* At(void* s) { return std::launder(reinterpret_cast<Fn*>(s)); }
    static void Invoke(void* s) { (*At(s))(); }
    static void InvokeDestroy(void* s) {
      (*At(s))();
      At(s)->~Fn();
    }
    static void Relocate(void* dst, void* src) {
      ::new (dst) Fn(std::move(*At(src)));
      At(src)->~Fn();
    }
    static void Destroy(void* s) { At(s)->~Fn(); }
    static constexpr Ops kOps = {&Invoke,  &InvokeDestroy,
                                 &Relocate, &Destroy,
                                 /*inline_stored=*/true, TrivialSmall<Fn>()};
  };

  template <typename Fn>
  struct BoxedOps {
    static Fn*& Ptr(void* s) { return *static_cast<Fn**>(s); }
    static void Invoke(void* s) { (*Ptr(s))(); }
    static void InvokeDestroy(void* s) {
      Fn* fn = Ptr(s);
      (*fn)();
      delete fn;
    }
    static void Relocate(void* dst, void* src) { Ptr(dst) = Ptr(src); }
    static void Destroy(void* s) { delete Ptr(s); }
    static constexpr Ops kOps = {&Invoke,  &InvokeDestroy,
                                 &Relocate, &Destroy,
                                 /*inline_stored=*/false, /*trivial_small=*/false};
  };

  void MoveFrom(EventFn&& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// Scheduling/run telemetry (monotonic; for benches and tests, not models).
struct EngineStats {
  uint64_t scheduled = 0;
  uint64_t wheel_scheduled = 0;   // entered the wheel directly
  uint64_t heap_scheduled = 0;    // beyond the wheel horizon
  uint64_t inline_callbacks = 0;  // captures held inline (entry or node)
  uint64_t boxed_callbacks = 0;   // heap-boxed captures
  uint64_t pool_slabs = 0;        // event-node slabs allocated
  uint64_t messages_scheduled = 0;  // ScheduleMessage (cross-shard band)
};

class Engine {
 public:
  using Callback = EventFn;

  // Sentinel for "no pending event"/"no deadline" (max representable time).
  static constexpr SimTime kNever = ~0ull;

  // Tie band for locally scheduled events. Messages carry their 32-bit
  // source id as the band, so at equal timestamps every message sorts
  // before every local event — in every shard layout.
  static constexpr uint64_t kLocalBand = 1ull << 32;

  // Callables at most this big that are trivially copyable live directly
  // in the 64-byte ready-queue entry (no node, no allocation).
  static constexpr size_t kEntryInlineBytes = 32;

  // Wheel geometry: kSlotCount slots of 2^kSlotShift ns each, a ~4.2 ms
  // horizon at 8.192 us per slot — wide enough for transport latencies,
  // RTOs, and RPC backoffs, with slots dense enough that the sort-once
  // drain amortizes over several events.
  static constexpr uint32_t kSlotShift = 13;
  static constexpr uint64_t kSlotCount = 512;
  static_assert(std::has_single_bit(kSlotCount) && kSlotCount >= 64,
                "the occupancy bitmap holds a power-of-two count of 64-slot words");
  static_assert(kSlotShift >= 4, "the drain's radix pass keys on four sub-slot bits");

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  SimTime Now() const { return now_; }

  // Runs `fn` at Now() + delay.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  void ScheduleAfter(Duration delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  void ScheduleAfter(Duration delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Runs `fn` at absolute virtual time `when` (>= Now()). The template
  // overload constructs the callable directly inside the ready queue.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  void ScheduleAt(SimTime when, F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    CHECK_GE(when, now_) << "cannot schedule into the past";
    Entry& entry = PlaceEntry(when, kLocalBand, next_seq_++);
    if constexpr (sizeof(Fn) <= kEntryInlineBytes && std::is_trivially_copyable_v<Fn> &&
                  alignof(Fn) <= 16) {
      ::new (static_cast<void*>(entry.storage)) Fn(std::forward<F>(fn));
      entry.ops = &EntryInlineOps<Fn>::kOps;
      ++stats_.inline_callbacks;
    } else {
      Event* node = AllocEvent();
      node->ops = EventFn::ConstructAt(node->storage, std::forward<F>(fn));
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
  void ScheduleAt(SimTime when, Callback fn) {
    CHECK_GE(when, now_) << "cannot schedule into the past";
    ScheduleErased(when, kLocalBand, next_seq_++, std::move(fn));
  }

  // Schedules a cross-shard message with an explicit layout-invariant key:
  // at equal `when` messages order by (source, seq) and run before local
  // events. Callers (the parallel layer) guarantee (source, seq) pairs are
  // unique and assigned in the source's deterministic execution order.
  void ScheduleMessage(SimTime when, uint32_t source, uint64_t seq, Callback fn) {
    CHECK_GE(when, now_) << "cannot schedule into the past";
    ++stats_.messages_scheduled;
    ScheduleErased(when, source, seq, std::move(fn));
  }

  // Drains the event queue completely. Returns the number of events run.
  uint64_t Run();

  // Runs events with time <= limit but leaves Now() at the last executed
  // event (the clock does not jump to `limit`). The parallel layer's window
  // primitive: per-shard horizons may lie far past the last local event,
  // and later-delivered messages must still be schedulable.
  uint64_t RunEvents(SimTime limit);

  // Advances the clock without executing anything (used by sequential cost
  // models that account latency inline rather than via events).
  void AdvanceTo(SimTime t);
  void Advance(Duration d) { AdvanceTo(now_ + d); }

  bool Empty() const { return event_count_ == 0; }
  size_t PendingEvents() const { return event_count_; }

  // Earliest pending event time, or kNever when the queue is empty. Used by
  // the parallel-simulation layer to compute epoch horizons. Read-only.
  SimTime PeekNextTime() const { return PeekTime(); }

  const EngineStats& stats() const { return stats_; }

 private:
  // Overflow node for callables that do not fit a ready-queue entry. Ops
  // and the leading capture bytes share the first cache line; free-list
  // linkage reuses the storage bytes.
  struct alignas(64) Event {
    const EventFn::Ops* ops;
    alignas(16) unsigned char storage[EventFn::kInlineBytes];
  };
  static_assert(sizeof(Event) == 128);

  struct EntryOps {
    void (*invoke_destroy)(Engine* engine, void* storage);
    void (*destroy)(Engine* engine, void* storage);
  };

  // One cache line per pending event: full ordering key, dispatch table,
  // and payload storage (small trivially copyable callable, a node
  // pointer, or a relocated type-erased ops+callable pair). Trivially
  // copyable by construction so slots, sorts, and heap sifts move raw
  // bytes.
  struct alignas(64) Entry {
    Entry() {}  // NOLINT: intentionally leaves members uninitialized so
                // emplace_back() on the hot path skips a 64-byte zero-fill
    SimTime when;
    uint64_t band;  // message source id, or kLocalBand for local events
    uint64_t seq;
    const EntryOps* ops;
    unsigned char storage[kEntryInlineBytes];
  };
  static_assert(sizeof(Entry) == 64);
  static_assert(std::is_trivially_copyable_v<Entry>);

  template <typename Fn>
  struct EntryInlineOps {
    static void InvokeDestroy(Engine* /*engine*/, void* s) {
      // Copy to the stack before invoking: the callback may schedule into
      // the express lane and recycle this very entry's storage (Fn is
      // trivially copyable by construction, so this is a register move).
      Fn fn = *std::launder(reinterpret_cast<Fn*>(s));
      fn();
      // Trivial destructor by construction: nothing to tear down.
    }
    static void Destroy(Engine* /*engine*/, void* /*s*/) {}
    static constexpr EntryOps kOps = {&InvokeDestroy, &Destroy};
  };

  // Payload is a node pointer; the callable (and its own ops) live in the
  // node, which returns to the pool after running.
  static void NodeInvokeDestroy(Engine* engine, void* s);
  static void NodeDestroy(Engine* engine, void* s);
  static constexpr EntryOps kNodeEntryOps = {&NodeInvokeDestroy, &NodeDestroy};

  // Payload is a relocated EventFn: its Ops* followed by the trivially
  // relocatable small callable (ScheduleMessage/erased ScheduleAt path).
  static void ErasedInvokeDestroy(Engine* engine, void* s);
  static void ErasedDestroy(Engine* engine, void* s);
  static constexpr EntryOps kErasedEntryOps = {&ErasedInvokeDestroy, &ErasedDestroy};

  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.band != b.band) {
      return a.band < b.band;
    }
    return a.seq < b.seq;
  }
  static bool EarlierKey(SimTime when, uint64_t band, uint64_t seq, const Entry& b) {
    if (when != b.when) {
      return when < b.when;
    }
    if (band != b.band) {
      return band < b.band;
    }
    return seq < b.seq;
  }

  static Event*& NextFree(Event* e) { return *reinterpret_cast<Event**>(e->storage); }

  Event* AllocEvent() {
    Event* event = free_list_;
    if (event != nullptr) [[likely]] {
      free_list_ = NextFree(event);
      return event;
    }
    return AllocEventSlow();
  }
  Event* AllocEventSlow();
  void ReleaseEvent(Event* event) {
    NextFree(event) = free_list_;
    free_list_ = event;
  }

  // Reserves an uninitialized Entry in the wheel calendar or heap staging
  // area and stamps its key; the caller fills the payload, then
  // CommitEntry()s. The wheel fast path costs one line write into the flat
  // calendar arena plus L1-resident bookkeeping (slot_len_, occ_, stats).
  Entry& PlaceEntry(SimTime when, uint64_t band, uint64_t seq) {
    ++stats_.scheduled;
    ++event_count_;
    if ((when >> kSlotShift) - (now_ >> kSlotShift) < kSlotCount) [[likely]] {
      const uint64_t abs_slot = when >> kSlotShift;
      // Express lane: an arrival for the slot currently being drained can
      // join the live drain buffer directly when it sorts after the last
      // pending entry — chained timers hit this on nearly every event and
      // skip the region write, the occupancy scan, and the re-sort.
      if (abs_slot == drain_slot_ && !wheel_dirty_ && !drain_aux_active_ &&
          drain_cnt_ < kSlotCap &&
          (drain_pos_ == drain_cnt_ ||
           (drain_base_ == drain_buf_ &&
            !EarlierKey(when, band, seq, drain_buf_[drain_cnt_ - 1])))) {
        ++wheel_count_;
        ++stats_.wheel_scheduled;
        if (drain_pos_ == drain_cnt_) {
          drain_base_ = drain_buf_;
          drain_pos_ = 0;
          drain_cnt_ = 0;
        }
        Entry* entry = &drain_buf_[drain_cnt_++];
        entry->when = when;
        entry->band = band;
        entry->seq = seq;
        return *entry;
      }
      const size_t p = static_cast<size_t>(abs_slot & kSlotMask);
      occ_[p >> 6] |= 1ull << (p & 63);
      // Inserting at or below the drained slot invalidates the cached
      // front; the next extraction re-resolves it.
      wheel_dirty_ |= abs_slot <= drain_slot_;
      ++wheel_count_;
      ++stats_.wheel_scheduled;
      const uint32_t len = slot_len_[p];
      Entry* entry;
      if (len < kSlotCap) [[likely]] {
        slot_len_[p] = len + 1;
        entry = slot_data_.get() + p * kSlotCap + len;
      } else {
        ++spill_count_;
        entry = &spill_[p].emplace_back();
      }
      entry->when = when;
      entry->band = band;
      entry->seq = seq;
      return *entry;
    }
    ++stats_.heap_scheduled;
    staged_.when = when;
    staged_.band = band;
    staged_.seq = seq;
    return staged_;
  }
  void CommitEntry(Entry& entry) {
    if (&entry == &staged_) [[unlikely]] {
      HeapPush(staged_);
    }
  }

  void ScheduleErased(SimTime when, uint64_t band, uint64_t seq, Callback fn);

  // Binary min-heap over Entry keys (std::priority_queue without the
  // adaptor overhead, and with direct access for the destructor).
  void HeapPush(const Entry& entry);
  void HeapPop();

  // Ensures drain_base_[drain_pos_] is the earliest wheel entry (merging
  // new arrivals and advancing to the next occupied slot as needed).
  // Returns false when the wheel is empty. Reorganization only —
  // ordering-neutral.
  bool EnsureWheelFront();
  bool ResolveWheelFront();  // slow path behind the dirty flag
  // Returns unconsumed drain entries to their slot (an over-horizon heap
  // event ran and scheduled below the drain, so the slot must be re-pulled
  // in full).
  void AbandonDrain();
  // First occupied absolute slot at/after Now()'s slot, or kNever if none.
  uint64_t FirstOccupiedAbs() const;
  // Radix-assisted exact sort into `dst` (branchless approximate counting
  // scatter + cleanup insertion sort); src and dst must not overlap.
  void SortInto(const Entry* src, size_t n, Entry* dst) const;
  void SortRange(Entry* a, size_t n) const;

  // Pops the earliest entry with when <= limit; the returned pointer stays
  // valid until the next ExtractMin (callbacks scheduling new events never
  // touch the drain). Returns nullptr when nothing is due. The single
  // ordering authority for Run/RunEvents.
  Entry* ExtractMin(SimTime limit);
  // Earliest pending time (kNever when empty).
  SimTime PeekTime() const;
  uint64_t RunLoop(SimTime limit);

  static constexpr size_t kSlabEvents = 256;
  static constexpr uint64_t kSlotMask = kSlotCount - 1;

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t event_count_ = 0;

  // Timing wheel: a flat calendar arena of kSlotCap entries per slot with
  // L1-resident per-slot lengths and an occupancy bitmap. The rare slot
  // that overflows kSlotCap spills into its per-slot vector (only examined
  // when slot_len_ has hit the cap).
  static constexpr size_t kSlotCap = 16;
  std::unique_ptr<Entry[]> slot_data_;  // kSlotCount * kSlotCap
  std::array<uint32_t, kSlotCount> slot_len_{};
  std::vector<std::vector<Entry>> spill_;
  size_t spill_count_ = 0;  // total spilled entries; gates all spill checks
  std::array<uint64_t, kSlotCount / 64> occ_{};
  size_t wheel_count_ = 0;

  // Drain state for the slot currently being consumed (absolute number
  // drain_slot_). Pulling a slot radix-scatters its region into the
  // L1-resident drain_buf_ and clears the slot, so the serial pop path
  // reads hot lines while the region loads overlap each other. Slots that
  // spilled past kSlotCap are gathered into drain_aux_ instead. Entries at
  // [drain_pos_, drain_cnt_) of drain_base_ are pending; wheel_dirty_
  // marks that an insert may have invalidated the cached front.
  Entry drain_buf_[kSlotCap];
  Entry* drain_base_ = nullptr;
  size_t drain_pos_ = 0;
  size_t drain_cnt_ = 0;
  uint64_t drain_slot_ = 0;
  bool drain_aux_active_ = false;
  bool wheel_dirty_ = false;
  std::vector<Entry> drain_aux_;

  // Overflow heap for events beyond the wheel horizon, the staging entry
  // PlaceEntry hands out before the payload exists, and the holding entry
  // a heap pop is returned through.
  std::vector<Entry> heap_;
  // Cached copy of heap_.front().when (kNever when empty): the per-pop
  // wheel-vs-heap arbitration reads this hot scalar instead of pulling the
  // heap's first cache line.
  SimTime heap_min_when_ = kNever;
  Entry staged_{};
  Entry pop_tmp_{};

  // Slab pool for overflow nodes.
  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* free_list_ = nullptr;

  EngineStats stats_;
};

}  // namespace hyperion::sim

#endif  // HYPERION_SRC_SIM_ENGINE_H_
