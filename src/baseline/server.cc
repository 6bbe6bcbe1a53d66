#include "src/baseline/server.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::baseline {

CpuServer::CpuServer(sim::Engine* engine, HostCostParams params)
    : engine_(engine), cpu_(engine, params), nvme_(engine) {
  nsid_ = nvme_.AddNamespace(1u << 20);  // 4 GiB namespace
}

Result<sim::Duration> CpuServer::KvOperation(bool is_write, uint64_t value_bytes) {
  const sim::SimTime start = engine_->Now();
  cpu_.Interrupt();
  cpu_.NetStackPacket();
  cpu_.Syscall();
  cpu_.Copy(value_bytes + 64);
  cpu_.Compute(4000);  // index probe/update in userspace
  const uint64_t lbas = std::max<uint64_t>(1, (value_bytes + nvme::kLbaSize - 1) / nvme::kLbaSize);
  cpu_.BlockStackIo();
  if (is_write) {
    Bytes payload(lbas * nvme::kLbaSize, 0);
    RETURN_IF_ERROR(nvme_.Write(nsid_, next_lba_, ByteSpan(payload.data(), payload.size())));
    next_lba_ = (next_lba_ + lbas) % (1u << 19);
  } else {
    RETURN_IF_ERROR(nvme_.Read(nsid_, 0, static_cast<uint32_t>(lbas)).status());
  }
  cpu_.Syscall();
  cpu_.Copy(value_bytes + 64);
  cpu_.NetStackPacket();
  return engine_->Now() - start;
}

sim::Duration TimeSharedScheduler::Submit(sim::SimTime arrival, sim::Duration service) {
  // Pick the earliest-free core.
  auto it = std::min_element(core_free_at_.begin(), core_free_at_.end());
  const sim::SimTime start = std::max(arrival, *it);
  const sim::SimTime done = start + context_switch_ + service;
  *it = done;
  const sim::Duration latency = done - arrival;
  latency_hist_.Record(latency);
  return latency;
}

}  // namespace hyperion::baseline
