// On-board DRAM/HBM model for the DPU (the U280 carries 32 GiB DDR4 and
// 8 GiB HBM2) and for the baseline host's DIMMs.
//
// A table of 4 KiB pages, each materialised zero-filled on the first write
// that touches it; bytes never written read as zero, and reads never
// allocate. A device therefore costs host memory only for what the workload
// writes. Paging is invisible to the latency model: fixed access latency
// plus serialization at the device bandwidth, charged once per access. HBM
// trades slightly higher latency for much higher bandwidth, which is why
// the placement hints of §2.1 matter.

#ifndef HYPERION_SRC_MEM_DRAM_H_
#define HYPERION_SRC_MEM_DRAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/sim/engine.h"

namespace hyperion::mem {

struct DramParams {
  sim::Duration access_latency = 90;  // row activate + CAS, ns
  double bandwidth_gbps = 153.6;      // 19.2 GB/s DDR4-2400 channel
};

inline DramParams HbmParams() {
  return DramParams{.access_latency = 120, .bandwidth_gbps = 3680.0};  // 460 GB/s
}

class DramDevice {
 public:
  static constexpr uint64_t kPageSize = 4096;

  DramDevice(sim::Engine* engine, uint64_t capacity_bytes, DramParams params = DramParams())
      : engine_(engine),
        params_(params),
        capacity_(capacity_bytes),
        pages_((capacity_bytes + kPageSize - 1) / kPageSize) {}

  uint64_t capacity() const { return capacity_; }

  Status Read(uint64_t addr, MutableByteSpan out);
  Status Write(uint64_t addr, ByteSpan data);

  // Latency model only (no data movement), for planners.
  sim::Duration AccessTime(uint64_t bytes) const {
    return params_.access_latency + sim::TransferTime(bytes, params_.bandwidth_gbps);
  }

 private:
  sim::Engine* engine_;
  DramParams params_;
  uint64_t capacity_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;  // null until first written
};

}  // namespace hyperion::mem

#endif  // HYPERION_SRC_MEM_DRAM_H_
