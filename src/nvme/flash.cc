#include "src/nvme/flash.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace hyperion::nvme {

namespace {

// Length of `block` up to and including its last non-zero byte. Written
// blocks mostly end in a long zero tail, so the scan steps back 32 bytes at
// a time and trims the last partial stride bytewise.
size_t NonZeroPrefix(ByteSpan block) {
  constexpr size_t kStride = 4 * sizeof(uint64_t);
  size_t n = block.size();
  for (uint64_t w[4]; n >= kStride; n -= kStride) {
    std::memcpy(w, block.data() + n - kStride, kStride);
    if ((w[0] | w[1] | w[2] | w[3]) != 0) {
      break;
    }
  }
  while (n > 0 && block[n - 1] == 0) {
    --n;
  }
  return n;
}

}  // namespace

Status FlashDevice::ReadBlock(uint64_t lba, MutableByteSpan out) const {
  if (lba >= capacity_lbas_) {
    return OutOfRange("read past end of namespace");
  }
  if (out.size() != kLbaSize) {
    return InvalidArgument("read buffer must be one LBA");
  }
  auto zeros_from = out.begin();
  if (auto it = blocks_.find(lba); it != blocks_.end()) {
    zeros_from = std::copy(it->second.begin(), it->second.end(), out.begin());
  }
  std::fill(zeros_from, out.end(), 0);
  return Status::Ok();
}

Status FlashDevice::WriteBlock(uint64_t lba, ByteSpan data) {
  if (lba >= capacity_lbas_) {
    return OutOfRange("write past end of namespace");
  }
  if (data.size() != kLbaSize) {
    return InvalidArgument("write buffer must be one LBA");
  }
  // assign() reuses the entry's buffer when the LBA is rewritten.
  blocks_[lba].assign(data.begin(), data.begin() + NonZeroPrefix(data));
  return Status::Ok();
}

size_t FlashDevice::StoredBytes() const {
  size_t total = 0;
  for (const auto& [lba, prefix] : blocks_) {
    total += prefix.size();
  }
  return total;
}

sim::Duration FlashDevice::ServiceTime(uint64_t lba, uint32_t count, bool is_write,
                                       sim::SimTime now) {
  CHECK_GT(count, 0u);
  const sim::Duration media = is_write ? latency_.program_ns : latency_.read_ns;
  sim::SimTime finish = now;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t ch = static_cast<size_t>((lba + i) % latency_.channels);
    // The block starts when both the op has been issued (now) and its
    // channel is free; it occupies the channel for media + transfer time.
    const sim::SimTime start = std::max(now, channel_free_at_[ch]);
    const sim::SimTime done = start + media + latency_.channel_xfer_per_lba_ns;
    channel_free_at_[ch] = done;
    finish = std::max(finish, done);
  }
  return finish - now;
}

}  // namespace hyperion::nvme
