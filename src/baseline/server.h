// CPU-centric storage server: the end-to-end baseline Hyperion replaces.
//
// Composes the host cost model and an NVMe controller into the classic
// kernel-mediated KV server: IRQ -> net stack -> syscall+copy to userspace
// -> index probe -> block stack -> NVMe -> syscall+copy -> net stack.
// (Experiment E1 prices whole net-to-storage transfers through the host
// PCIe topology in integration.h.)
//
// Also provides the time-shared multi-tenant scheduler used as the
// predictability baseline in experiment E7 (contrast: spatially partitioned
// FPGA slots never queue behind a neighbour).

#ifndef HYPERION_SRC_BASELINE_SERVER_H_
#define HYPERION_SRC_BASELINE_SERVER_H_

#include <cstdint>
#include <vector>

#include "src/baseline/host.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace hyperion::baseline {

class CpuServer {
 public:
  CpuServer(sim::Engine* engine, HostCostParams params = HostCostParams());

  // Application-level KV op (userspace index + storage access).
  Result<sim::Duration> KvOperation(bool is_write, uint64_t value_bytes);

  HostCpu& cpu() { return cpu_; }
  nvme::Controller& nvme() { return nvme_; }

 private:
  sim::Engine* engine_;
  HostCpu cpu_;
  nvme::Controller nvme_;
  uint32_t nsid_;
  uint64_t next_lba_ = 0;
};

// FCFS time-sharing of one core pool among tenants, with context-switch
// costs — the CPU's answer to multi-tenancy.
class TimeSharedScheduler {
 public:
  TimeSharedScheduler(uint32_t cores, sim::Duration context_switch)
      : cores_(cores), context_switch_(context_switch), core_free_at_(cores, 0) {}

  // Offers a request arriving at `arrival` needing `service` of CPU time;
  // returns its completion latency (queueing + switch + service).
  sim::Duration Submit(sim::SimTime arrival, sim::Duration service);

  const sim::Histogram& latencies() const { return latency_hist_; }

 private:
  uint32_t cores_;
  sim::Duration context_switch_;
  std::vector<sim::SimTime> core_free_at_;
  sim::Histogram latency_hist_;
};

}  // namespace hyperion::baseline

#endif  // HYPERION_SRC_BASELINE_SERVER_H_
