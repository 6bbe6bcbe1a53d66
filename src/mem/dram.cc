#include "src/mem/dram.h"

#include <algorithm>

namespace hyperion::mem {

namespace {

// Splits [addr, addr + size) at page boundaries and calls
// fn(page, offset_in_page, done, chunk) for each piece in address order;
// `done` is the number of bytes before the piece.
template <typename Fn>
void ForEachPage(uint64_t addr, uint64_t size, Fn&& fn) {
  for (uint64_t done = 0; done < size;) {
    const uint64_t at = addr + done;
    const uint64_t offset = at % DramDevice::kPageSize;
    const uint64_t chunk = std::min(size - done, DramDevice::kPageSize - offset);
    fn(at / DramDevice::kPageSize, offset, done, chunk);
    done += chunk;
  }
}

}  // namespace

Status DramDevice::Read(uint64_t addr, MutableByteSpan out) {
  if (addr > capacity_ || out.size() > capacity_ - addr) {
    return OutOfRange("DRAM read past end");
  }
  ForEachPage(addr, out.size(), [&](uint64_t page, uint64_t offset, uint64_t done, uint64_t chunk) {
    uint8_t* dst = out.data() + done;
    if (const uint8_t* src = pages_[page].get()) {
      std::copy_n(src + offset, chunk, dst);
    } else {
      std::fill_n(dst, chunk, 0);  // never written
    }
  });
  engine_->Advance(AccessTime(out.size()));
  return Status::Ok();
}

Status DramDevice::Write(uint64_t addr, ByteSpan data) {
  if (addr > capacity_ || data.size() > capacity_ - addr) {
    return OutOfRange("DRAM write past end");
  }
  ForEachPage(addr, data.size(), [&](uint64_t page, uint64_t offset, uint64_t done, uint64_t chunk) {
    std::unique_ptr<uint8_t[]>& dst = pages_[page];
    if (dst == nullptr) {
      dst = std::make_unique<uint8_t[]>(kPageSize);  // value-initialised: zero-filled
    }
    std::copy_n(data.data() + done, chunk, dst.get() + offset);
  });
  engine_->Advance(AccessTime(data.size()));
  return Status::Ok();
}

}  // namespace hyperion::mem
