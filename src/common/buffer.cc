#include "src/common/buffer.h"

#include <atomic>

namespace hyperion {

namespace {
// Relaxed atomics: threads may copy buffers concurrently, and the totals
// are monotonic tallies read only at quiescence — no ordering with respect
// to other memory is needed.
std::atomic<uint64_t> g_copied_bytes{0};
std::atomic<uint64_t> g_copy_ops{0};
}  // namespace

uint64_t BufferCopiedBytes() { return g_copied_bytes.load(std::memory_order_relaxed); }
uint64_t BufferCopyOps() { return g_copy_ops.load(std::memory_order_relaxed); }

void AccountBufferCopy(uint64_t bytes) {
  g_copied_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_copy_ops.fetch_add(1, std::memory_order_relaxed);
}

Buffer Buffer::CopyOf(ByteSpan data) {
  AccountBufferCopy(data.size());
  return Buffer(Bytes(data.begin(), data.end()));
}

Buffer Buffer::FromString(const std::string& s) {
  AccountBufferCopy(s.size());
  return Buffer(Bytes(s.begin(), s.end()));
}

Bytes Buffer::ToBytes() const {
  AccountBufferCopy(size_);
  return Bytes(data_, data_ + size_);
}

BufferChain BufferChain::SubChain(size_t offset, size_t length) const {
  DCHECK_LE(offset, total_);
  DCHECK_LE(length, total_ - offset);
  BufferChain out;
  size_t skip = offset;
  size_t want = length;
  for (const Buffer& seg : segments_) {
    if (want == 0) {
      break;
    }
    if (skip >= seg.size()) {
      skip -= seg.size();
      continue;
    }
    const size_t take = std::min(want, seg.size() - skip);
    out.Append(seg.Slice(skip, take));
    skip = 0;
    want -= take;
  }
  return out;
}

Bytes BufferChain::Flatten() const {
  Bytes out(total_);
  CopyTo(MutableByteSpan(out));
  return out;
}

Buffer BufferChain::Gather() const {
  if (segments_.empty()) {
    return Buffer();
  }
  if (segments_.size() == 1) {
    return segments_[0];
  }
  return Buffer(Flatten());
}

void BufferChain::CopyTo(MutableByteSpan out) const {
  CHECK_EQ(out.size(), total_);
  size_t at = 0;
  for (const Buffer& seg : segments_) {
    std::memcpy(out.data() + at, seg.data(), seg.size());
    at += seg.size();
  }
  AccountBufferCopy(total_);
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
