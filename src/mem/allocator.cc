#include "src/mem/allocator.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::mem {

RangeAllocator::RangeAllocator(uint64_t capacity) : capacity_(capacity) {
  if (capacity > 0) {
    free_[0] = capacity;
  }
}

Result<uint64_t> RangeAllocator::Allocate(uint64_t size) {
  if (size == 0) {
    return InvalidArgument("zero-size allocation");
  }
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= size) {
      const uint64_t offset = it->first;
      const uint64_t remaining = it->second - size;
      free_.erase(it);
      if (remaining > 0) {
        free_[offset + size] = remaining;
      }
      used_ += size;
      return offset;
    }
  }
  return ResourceExhausted("no contiguous range of requested size");
}

Status RangeAllocator::Reserve(uint64_t offset, uint64_t size) {
  if (size == 0 || offset > capacity_ || size > capacity_ - offset) {
    return InvalidArgument("bad reserve range");
  }
  // Find the free range containing [offset, offset+size).
  auto it = free_.upper_bound(offset);
  if (it == free_.begin()) {
    return AlreadyExists("range (partially) allocated");
  }
  --it;
  const uint64_t free_start = it->first;
  const uint64_t free_size = it->second;
  if (offset < free_start || offset + size > free_start + free_size) {
    return AlreadyExists("range (partially) allocated");
  }
  free_.erase(it);
  if (offset > free_start) {
    free_[free_start] = offset - free_start;
  }
  if (offset + size < free_start + free_size) {
    free_[offset + size] = free_start + free_size - (offset + size);
  }
  used_ += size;
  return Status::Ok();
}

Status RangeAllocator::Free(uint64_t offset, uint64_t size) {
  if (size == 0 || offset > capacity_ || size > capacity_ - offset) {
    return InvalidArgument("bad free range");
  }
  // Find the free range after the one being inserted and its predecessor.
  auto next = free_.lower_bound(offset);
  if (next != free_.end() && offset + size > next->first) {
    return InvalidArgument("free overlaps a free range (double free?)");
  }
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second > offset) {
      return InvalidArgument("free overlaps a free range (double free?)");
    }
  }
  used_ -= size;
  // Insert, then coalesce with neighbours.
  auto [it, inserted] = free_.emplace(offset, size);
  CHECK(inserted);
  // Coalesce forward.
  auto after = std::next(it);
  if (after != free_.end() && it->first + it->second == after->first) {
    it->second += after->second;
    free_.erase(after);
  }
  // Coalesce backward.
  if (it != free_.begin()) {
    auto before = std::prev(it);
    if (before->first + before->second == it->first) {
      before->second += it->second;
      free_.erase(it);
    }
  }
  return Status::Ok();
}

uint64_t RangeAllocator::LargestFreeRange() const {
  uint64_t largest = 0;
  for (const auto& [off, size] : free_) {
    largest = std::max(largest, size);
  }
  return largest;
}

}  // namespace hyperion::mem
