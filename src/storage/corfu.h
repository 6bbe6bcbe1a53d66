// Corfu-style shared log (paper §2.4: "network-attached SSDs that can
// support Corfu consensus protocol", citing CORFU [20] and Beyond Block
// I/O [165]).
//
// The log is a sequence of write-once positions. A sequencer hands out
// positions (the only centralized step); data then goes directly to the
// storage unit owning that position. Write-once is enforced by the storage
// layer: a second write to a position fails, which is what makes the log a
// consensus building block. Slow writers leave holes that readers (or a
// repair process) fill with junk so the log remains prefix-readable.
//
// Positions stripe across `stripe_units` virtual storage units; each entry
// lives in its own durable 128-bit-addressed segment, so on Hyperion the
// whole log is served by the DPU with no host CPU (experiment E9).
//
// Sequencer state is durable: Reserve() persists a position ceiling to a
// meta segment in chunks of kReserveChunk, and a log reopened over the same
// store recovers its tail from that ceiling. The ceiling may overestimate
// the true tail by up to a chunk; the over-reserved positions are ordinary
// holes (filled by repair), never re-issued, which is the invariant that
// matters for write-once.

#ifndef HYPERION_SRC_STORAGE_CORFU_H_
#define HYPERION_SRC_STORAGE_CORFU_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/mem/object_store.h"

namespace hyperion::storage {

class CorfuLog {
 public:
  static constexpr uint32_t kMaxEntryLen = 4000;
  // Positions per durable ceiling bump: one 16-byte meta write amortised
  // over this many Reserve() calls.
  static constexpr uint64_t kReserveChunk = 64;
  // Highest position Reserve hands out and WriteAt and Fill accept. Past
  // it, the tail (position + 1) or the chunk-rounded ceiling would wrap
  // to 0.
  static constexpr uint64_t kMaxPosition = UINT64_MAX - kReserveChunk;

  CorfuLog(mem::ObjectStore* store, uint64_t log_id, uint32_t stripe_units = 4);

  // -- Client-driven protocol (the fast path) -------------------------------

  // Sequencer: reserves the next position. Persists the chunked ceiling so
  // a reopened log never re-issues a handed-out position. kOutOfRange once
  // the tail has passed kMaxPosition.
  Result<uint64_t> Reserve();

  // Writes `data` to a reserved position. kAlreadyExists if the position
  // was already written or hole-filled (write-once); kOutOfRange past
  // kMaxPosition. Positions at or past the local tail advance it: a replica
  // accepts positions reserved at a remote sequencer without having seen
  // the Reserve().
  Status WriteAt(uint64_t position, ByteSpan data);

  // Reads a position. kNotFound if unwritten; kDataLoss if it was
  // hole-filled (the entry is permanently lost); kOutOfRange past tail.
  Result<Bytes> Read(uint64_t position);

  // Junk-fills a hole so readers can make progress (write-once also holds
  // for fills). Advances the tail, and bounds the position, like WriteAt.
  Status Fill(uint64_t position);

  // -- Convenience ------------------------------------------------------------

  // Reserve + WriteAt in one step; returns the position.
  Result<uint64_t> Append(ByteSpan data);

  uint64_t Tail() const { return tail_; }

  // Adopts a recovered tail (failover: the new sequencer resumes from the
  // maximum tail observed across sealed replicas). Monotone; persists the
  // covering ceiling so the adoption survives a reopen. kOutOfRange, with
  // the tail unchanged, past kMaxPosition + 1.
  Status AdvanceTail(uint64_t tail);

  // Most positions one Trim may reclaim. Each costs a store delete, so a
  // prefix far past the trim point would stall whoever serves the call.
  static constexpr uint64_t kMaxTrimPositions = uint64_t{1} << 16;

  // Reclaims all positions < prefix. kOutOfRange, with nothing reclaimed,
  // past the tail or more than kMaxTrimPositions past the trim point.
  Status Trim(uint64_t prefix);
  uint64_t TrimPoint() const { return trim_point_; }

  // Storage unit owning a position (round-robin striping).
  uint32_t UnitOf(uint64_t position) const {
    return static_cast<uint32_t>(position % stripe_units_);
  }

 private:
  mem::SegmentId EntrySegment(uint64_t position) const;
  mem::SegmentId MetaSegment() const;
  // Persists {ceiling, trim} to the meta segment (creating it on first use).
  void PersistMeta();
  // Raises the durable ceiling to cover `position` if it does not already.
  void CoverPosition(uint64_t position);

  mem::ObjectStore* store_;
  uint64_t log_id_;
  uint32_t stripe_units_;
  uint64_t tail_ = 0;
  uint64_t trim_point_ = 0;
  // Durable position ceiling: every position ever Reserved (or accepted via
  // WriteAt/Fill) is < ceiling_, and ceiling_ is what recovery reads back.
  uint64_t ceiling_ = 0;
};

}  // namespace hyperion::storage

#endif  // HYPERION_SRC_STORAGE_CORFU_H_
