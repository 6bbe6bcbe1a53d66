// Zero-copy byte buffers for the datapath.
//
// The paper's quantitative argument (§1, Table 1) is that the CPU-free
// datapath wins by eliminating per-hop copies; the host-side simulator
// should itself exhibit that property. `Buffer` is a ref-counted immutable
// view of a byte block: slicing shares the backing allocation, so a payload
// can travel client → RPC frame → shell dispatch → storage and back with
// reference bumps instead of memcpys. `BufferChain` is the scatter-gather
// companion: a frame or DMA descriptor is a list of Buffer segments, and
// bytes are assembled contiguously (the one real copy) only where a read
// straddles two segments.
//
// Every byte physically copied *through this layer* (ToBytes, straddling
// ChainReader reads) is charged to a process-wide counter so experiments
// can report copies-per-request (see EXPERIMENTS.md, "copy-bytes
// accounting").
//
// Thread-safety (checked by BufferThreadTest):
//   * The copy counter is a relaxed atomic — accounting stays correct when
//     threads copy concurrently.
//   * The backing-block reference count is a std::shared_ptr control block,
//     whose increments/decrements are atomic: distinct Buffer values (and
//     slices) that share one block may be created, copied, and destroyed
//     from different threads — exactly what happens when an RPC payload
//     slice rides a cross-shard message. A block made by Build keeps its
//     bytes in the same allocation as that control block.
//   * A single Buffer/BufferChain *object* is still not synchronized; hand
//     a value across shards by moving it into the closure a
//     ParallelEngine::Post delivers, never by sharing one object between
//     shards.
//   * Borrowed() buffers carry no refcount at all; they must stay confined
//     to the scope (and shard) that owns the underlying memory.

#ifndef HYPERION_SRC_COMMON_BUFFER_H_
#define HYPERION_SRC_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace hyperion {

// -- Copy accounting ---------------------------------------------------------

// Monotonic total of bytes memcpy'd through the buffer layer since process
// start (a relaxed atomic: exact under concurrent copies).
uint64_t BufferCopiedBytes();
// Internal: charge a copy. Exposed so chain helpers outside buffer.cc can
// account honestly.
void AccountBufferCopy(uint64_t bytes);

// -- Buffer ------------------------------------------------------------------

// Immutable, ref-counted byte block view. Copying a Buffer or slicing it
// shares the backing storage; the bytes themselves are never duplicated.
class Buffer {
 public:
  Buffer() = default;

  // Adopts an existing byte vector without copying it (implicit on purpose:
  // existing call sites hand `Bytes` payloads by value/move).
  Buffer(Bytes bytes) {  // NOLINT(google-explicit-constructor)
    auto block = std::make_shared<const Bytes>(std::move(bytes));
    data_ = block->data();
    size_ = block->size();
    owner_ = std::move(block);
  }

  // A fresh block of `size` bytes that `fill(MutableByteSpan)` writes in
  // full before the Buffer is handed out. The bytes and the refcount share
  // one heap allocation, so a frame header costs one block, not the two an
  // adopted `Bytes` costs.
  template <typename Fill>
  static Buffer Build(size_t size, Fill&& fill) {
    std::shared_ptr<uint8_t[]> block = std::make_shared_for_overwrite<uint8_t[]>(size);
    fill(MutableByteSpan(block.get(), size));
    Buffer b;
    b.data_ = block.get();
    b.size_ = size;
    b.owner_ = std::move(block);
    return b;
  }

  // Non-owning view of caller-managed memory. The caller guarantees the
  // span outlives every Buffer/slice derived from it — intended for
  // synchronous scopes (e.g. the NVMe facade wrapping a caller's span for
  // the duration of one command).
  static Buffer Borrowed(ByteSpan data) {
    Buffer b;
    b.data_ = data.data();
    b.size_ = data.size();
    return b;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const {
    DCHECK_LT(i, size_);
    return data_[i];
  }

  ByteSpan span() const { return ByteSpan(data_, size_); }
  operator ByteSpan() const { return span(); }  // NOLINT(google-explicit-constructor)

  // Shares the backing block; no bytes move.
  Buffer Slice(size_t offset, size_t length) const {
    DCHECK_LE(offset, size_);
    DCHECK_LE(length, size_ - offset);
    Buffer b;
    b.data_ = data_ + offset;
    b.size_ = length;
    b.owner_ = owner_;
    return b;
  }
  Buffer Slice(size_t offset) const { return Slice(offset, size_ - offset); }

  // Materializes an owned, mutable copy (accounted). This is the escape
  // hatch for mutation boundaries; hot paths should slice instead.
  Bytes ToBytes() const;

  // References (including this one) on the backing block; 0 for default or
  // borrowed buffers. Test hook for aliasing/lifetime assertions.
  long use_count() const { return owner_.use_count(); }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::shared_ptr<const void> owner_;
};

// -- BufferChain -------------------------------------------------------------

// Scatter-gather list of Buffer segments: the in-memory shape of a network
// frame or DMA descriptor. Appending shares segments; only straddling
// ChainReader reads copy bytes.
class BufferChain {
 public:
  BufferChain() = default;
  // A single-segment chain (implicit: lets `Bytes`/`Buffer` payloads flow
  // into scatter-gather APIs without ceremony).
  BufferChain(Buffer buffer) {  // NOLINT(google-explicit-constructor)
    Append(std::move(buffer));
  }
  BufferChain(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : BufferChain(Buffer(std::move(bytes))) {}

  // Sizes the segment list for `segments` in all, so a frame whose parts
  // are known up front grows its list once.
  void Reserve(size_t segments) { segments_.reserve(segments); }

  void Append(Buffer buffer) {
    if (buffer.empty()) {
      return;
    }
    total_ += buffer.size();
    segments_.push_back(std::move(buffer));
  }
  void Append(const BufferChain& chain) {
    for (const Buffer& seg : chain.segments_) {
      Append(seg);
    }
  }

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  size_t segment_count() const { return segments_.size(); }
  const Buffer& segment(size_t i) const {
    DCHECK_LT(i, segments_.size());
    return segments_[i];
  }

 private:
  std::vector<Buffer> segments_;
  size_t total_ = 0;
};

// -- ChainReader -------------------------------------------------------------

// Sequential cursor over a chain that yields contiguous spans. A read that
// lives inside one segment is returned by reference (zero copy); a read
// straddling segments is assembled into caller-provided scratch (accounted).
class ChainReader {
 public:
  explicit ChainReader(const BufferChain& chain) : chain_(&chain) {}

  size_t remaining() const { return chain_->size() - consumed_; }
  bool ok() const { return ok_; }

  // Returns `n` contiguous bytes, advancing the cursor. `scratch` must hold
  // at least `n` bytes; it is written only on a straddling read. Returns an
  // empty span (and clears ok()) on overrun.
  ByteSpan Next(size_t n, MutableByteSpan scratch);

  // Returns the next `n` bytes as a Buffer, advancing the cursor: a shared
  // slice of the segment when they lie inside one (zero copy), else one
  // accounted copy into a fresh block. Empty (and clears ok()) on overrun.
  Buffer Slice(size_t n);

  // Advances the cursor past `n` bytes without reading them (no copy).
  // Clears ok() on overrun.
  void Skip(size_t n);

 private:
  const BufferChain* chain_;
  size_t segment_ = 0;     // current segment index
  size_t offset_ = 0;      // offset within current segment
  size_t consumed_ = 0;    // total bytes consumed
  bool ok_ = true;
};

}  // namespace hyperion

#endif  // HYPERION_SRC_COMMON_BUFFER_H_
