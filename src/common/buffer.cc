#include "src/common/buffer.h"

#include <atomic>

namespace hyperion {

namespace {
// A relaxed atomic: threads may copy buffers concurrently, and the total is
// a monotonic tally read only at quiescence — no ordering with respect to
// other memory is needed.
std::atomic<uint64_t> g_copied_bytes{0};
}  // namespace

uint64_t BufferCopiedBytes() { return g_copied_bytes.load(std::memory_order_relaxed); }

void AccountBufferCopy(uint64_t bytes) {
  g_copied_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

Bytes Buffer::ToBytes() const {
  AccountBufferCopy(size_);
  return Bytes(data_, data_ + size_);
}

ByteSpan ChainReader::Next(size_t n, MutableByteSpan scratch) {
  if (!ok_ || remaining() < n || scratch.size() < n) {
    ok_ = false;
    return {};
  }
  if (n == 0) {
    return {};
  }
  const Buffer& seg = chain_->segment(segment_);
  if (seg.size() - offset_ >= n) {
    // Entirely inside the current segment: hand out the live span.
    ByteSpan out(seg.data() + offset_, n);
    offset_ += n;
    consumed_ += n;
    if (offset_ == seg.size()) {
      ++segment_;
      offset_ = 0;
    }
    return out;
  }
  // Straddles segments: assemble into scratch (the one honest copy).
  size_t filled = 0;
  while (filled < n) {
    const Buffer& cur = chain_->segment(segment_);
    const size_t take = std::min(n - filled, cur.size() - offset_);
    std::memcpy(scratch.data() + filled, cur.data() + offset_, take);
    filled += take;
    offset_ += take;
    if (offset_ == cur.size()) {
      ++segment_;
      offset_ = 0;
    }
  }
  consumed_ += n;
  AccountBufferCopy(n);
  return ByteSpan(scratch.data(), n);
}

Buffer ChainReader::Slice(size_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return Buffer();
  }
  if (n == 0) {
    return Buffer();
  }
  const Buffer& seg = chain_->segment(segment_);
  if (seg.size() - offset_ >= n) {
    Buffer out = seg.Slice(offset_, n);
    Skip(n);
    return out;
  }
  // Straddles segments: Next assembles the bytes straight into the new
  // block and accounts the copy.
  return Buffer::Build(n, [this, n](MutableByteSpan out) { Next(n, out); });
}

void ChainReader::Skip(size_t n) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return;
  }
  consumed_ += n;
  while (n > 0) {
    const size_t size = chain_->segment(segment_).size();
    const size_t take = std::min(n, size - offset_);
    offset_ += take;
    n -= take;
    if (offset_ == size) {
      ++segment_;
      offset_ = 0;
    }
  }
}

}  // namespace hyperion
