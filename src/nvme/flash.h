// Flash media model backing a simulated NVMe device.
//
// Storage is an in-memory sparse block map (unwritten LBAs read back as
// zeroes, like a freshly formatted namespace). A written LBA keeps only its
// prefix up to the last non-zero byte, so host memory follows the bytes a
// block really holds: a short log entry or spilled value padded to one LBA
// costs its own size, not 4 KiB. The latency model captures
// the properties the experiments depend on: asymmetric read/program
// latency, multi-channel parallelism (ops on different channels overlap),
// and serialization of the data across the channel bus.

#ifndef HYPERION_SRC_NVME_FLASH_H_
#define HYPERION_SRC_NVME_FLASH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/sim/time.h"

namespace hyperion::nvme {

constexpr uint32_t kLbaSize = 4096;  // bytes per logical block

struct FlashLatency {
  sim::Duration read_ns = 75 * sim::kMicrosecond;    // TLC page read
  sim::Duration program_ns = 15 * sim::kMicrosecond; // SLC-cache program
  sim::Duration channel_xfer_per_lba_ns = 3 * sim::kMicrosecond;  // ONFI bus
  uint32_t channels = 8;
};

class FlashDevice {
 public:
  FlashDevice(uint64_t capacity_lbas, FlashLatency latency = FlashLatency())
      : capacity_lbas_(capacity_lbas), latency_(latency),
        channel_free_at_(latency.channels, 0) {}

  uint64_t capacity_lbas() const { return capacity_lbas_; }
  const FlashLatency& latency() const { return latency_; }

  // Copies the block at `lba` into `out` (exactly kLbaSize bytes): the
  // stored prefix, then zeroes to the end of the LBA.
  Status ReadBlock(uint64_t lba, MutableByteSpan out) const;
  // Stores `data` (exactly kLbaSize bytes) at `lba`, keeping only its
  // prefix up to the last non-zero byte; ReadBlock returns `data` exactly.
  Status WriteBlock(uint64_t lba, ByteSpan data);

  // Media service time for a `count`-block op starting at `lba`, beginning
  // at virtual time `now`. Accounts channel occupancy: the op completes when
  // its last channel finishes. Mutates per-channel free times.
  sim::Duration ServiceTime(uint64_t lba, uint32_t count, bool is_write, sim::SimTime now);

  // Number of blocks that have ever been written (for tests/metrics); an
  // all-zero write counts too.
  size_t WrittenBlocks() const { return blocks_.size(); }
  // Host bytes held for written blocks: the sum of their stored prefixes.
  size_t StoredBytes() const;

 private:
  uint64_t capacity_lbas_;
  FlashLatency latency_;
  std::unordered_map<uint64_t, Bytes> blocks_;  // LBA -> non-zero prefix
  std::vector<sim::SimTime> channel_free_at_;
};

}  // namespace hyperion::nvme

#endif  // HYPERION_SRC_NVME_FLASH_H_
