// Flow-control primitives for the overload-safe datapath (PR 5).
//
// The paper's Hyperion keeps its unified datapath fast *because* no CPU
// mediates between NIC, fabric, and flash — which also means no host kernel
// is around to shed load when an open-loop burst arrives. These three
// building blocks give every layer of the stack a CPU-free way to bound its
// queues, all deterministic under the discrete-event engine:
//
//   CreditGate           fixed pool of credits, the backwards-propagating
//                        "may I occupy downstream capacity" token (the LSM
//                        engine's shared NVMe SQ slots, the XDP ingress's
//                        NIC batches in flight).
//   AdmissionController  bounded pending-request queue with deadline-aware
//                        early rejection for a FIFO pipeline whose state is
//                        a busy-until clock (the node-clock idiom used by
//                        ShardedRpcNode's RpcOverloadPolicy and
//                        load::XdpCluster).
//   Batcher<T>           K-or-max-delay coalescer: trades a bounded added
//                        latency for amortized per-item costs (NVMe doorbell
//                        rings in load::OverloadPipeline).
//
// None of these draw randomness or read wall-clock time; decisions depend
// only on virtual time and call order, so sharded runs stay bit-identical.

#ifndef HYPERION_SRC_SIM_FLOW_H_
#define HYPERION_SRC_SIM_FLOW_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace hyperion::sim {

// A fixed pool of credits. Acquire before occupying downstream capacity,
// release on completion; exhaustion is the backpressure signal the caller
// turns into a shed, a stall, or a fast-reject.
class CreditGate {
 public:
  explicit CreditGate(uint32_t capacity) : capacity_(capacity) {}

  // Takes one credit; false (and counted) when the pool is exhausted.
  bool TryAcquire() {
    if (in_use_ >= capacity_) {
      counters_.Increment("credit_exhausted");
      return false;
    }
    ++in_use_;
    if (in_use_ > max_in_use_) {
      max_in_use_ = in_use_;
    }
    counters_.Increment("credit_acquired");
    return true;
  }

  void Release() {
    CHECK_GT(in_use_, 0u) << "credit released but none in use";
    --in_use_;
    counters_.Increment("credit_released");
  }

  uint32_t capacity() const { return capacity_; }
  uint32_t in_use() const { return in_use_; }
  uint32_t available() const { return capacity_ - in_use_; }
  uint32_t max_in_use() const { return max_in_use_; }

  // credit_acquired / credit_released / credit_exhausted.
  const Counters& counters() const { return counters_; }

 private:
  uint32_t capacity_;
  uint32_t in_use_ = 0;
  uint32_t max_in_use_ = 0;
  Counters counters_;
};

enum class AdmissionDecision : uint8_t {
  kAdmit = 0,
  kShedQueueFull,  // bounded pending queue is at max_pending entries
  kShedBacklog,    // pipeline backlog exceeds max_backlog of virtual time
  kShedDeadline,   // backlog + estimated service cannot meet the deadline
};

struct AdmissionParams {
  // Bounded pending-request queue, in entries. Requests admitted but not
  // yet finished occupy a slot; arrivals beyond the bound are shed.
  uint32_t max_pending = 64;
  // Bound on the pipeline backlog, in virtual time: an arrival that would
  // wait longer than this behind in-flight work is shed.
  Duration max_backlog = 2 * kMillisecond;
  // EWMA weight for the service-time estimate driving deadline shedding
  // (the classic SRTT gain).
  double ewma_alpha = 0.125;
};

// Deadline-aware bounded-queue admission for a FIFO pipeline modelled as a
// busy-until clock. The controller never touches the pipeline itself; it
// only observes (arrival, busy_until) pairs, so the fast-reject path costs
// whatever the caller charges — by construction no flash or fabric time.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionParams params = {}) : params_(params) {}

  // Decision for a request arriving at `now`, with the pipeline busy until
  // `busy_until` (<= now means idle), against an absolute virtual-time
  // `deadline` (Engine::kNever = none). Does not reserve a slot; callers
  // report admitted work via OnAdmitted.
  AdmissionDecision Decide(SimTime now, SimTime busy_until, SimTime deadline) {
    const Duration backlog = busy_until > now ? busy_until - now : 0;
    if (PendingAt(now) >= params_.max_pending) {
      counters_.Increment("admission_shed_queue_full");
      return AdmissionDecision::kShedQueueFull;
    }
    if (backlog > params_.max_backlog) {
      counters_.Increment("admission_shed_backlog");
      return AdmissionDecision::kShedBacklog;
    }
    if (deadline != Engine::kNever && now + backlog + EstimatedService() > deadline) {
      counters_.Increment("admission_shed_deadline");
      return AdmissionDecision::kShedDeadline;
    }
    counters_.Increment("admission_admitted");
    return AdmissionDecision::kAdmit;
  }

  // Reports an admitted request: it occupies a pending slot until `finish`
  // and its service time (finish - start of service) feeds the estimate.
  void OnAdmitted(SimTime arrival, SimTime finish) {
    CHECK_GE(finish, arrival);
    pending_.push_back(finish);
    depth_.Record(pending_.size());
    // The service sample excludes queueing: the pipeline worked on this
    // request from max(arrival, previous finish) to finish, and the deque
    // is FIFO, so the previous entry's finish is the service start.
    const SimTime start =
        pending_.size() >= 2 ? std::max(arrival, pending_[pending_.size() - 2]) : arrival;
    const auto sample = static_cast<double>(finish - start);
    estimate_ns_ = estimate_ns_ == 0.0
                       ? sample
                       : estimate_ns_ + params_.ewma_alpha * (sample - estimate_ns_);
  }

  // Pending admitted requests whose finish time is still in the future;
  // drops completed entries as a side effect.
  uint32_t PendingAt(SimTime now) {
    while (!pending_.empty() && pending_.front() <= now) {
      pending_.pop_front();
    }
    return static_cast<uint32_t>(pending_.size());
  }

  Duration EstimatedService() const { return static_cast<Duration>(estimate_ns_); }
  const AdmissionParams& params() const { return params_; }

  // admission_admitted / admission_shed_{queue_full,backlog,deadline}.
  const Counters& counters() const { return counters_; }
  // Pending-queue depth observed at each admission.
  const Histogram& depth() const { return depth_; }

 private:
  AdmissionParams params_;
  std::deque<SimTime> pending_;  // finish times, FIFO
  double estimate_ns_ = 0.0;
  Counters counters_;
  Histogram depth_;
};

// Coalesces items into batches of up to `max_batch`, flushing early after
// `max_delay` so a lone item on an idle system is never stranded. The flush
// callback runs inline (size-triggered) or from a scheduled engine event
// (timer-triggered); the Batcher must outlive the engine's pending events.
template <typename T>
class Batcher {
 public:
  // `timer_flush` tells the callback whether the max-delay timer (true) or
  // the size threshold / an explicit Flush() (false) triggered it.
  using FlushFn = std::function<void(std::vector<T> batch, bool timer_flush)>;

  Batcher(Engine* engine, uint32_t max_batch, Duration max_delay, FlushFn flush)
      : engine_(engine), max_batch_(max_batch), max_delay_(max_delay), flush_(std::move(flush)) {
    CHECK_GT(max_batch, 0u);
  }

  void Add(T item) {
    if (items_.empty() && max_batch_ > 1) {
      ArmTimer();
    }
    items_.push_back(std::move(item));
    counters_.Increment("batch_items");
    if (items_.size() >= max_batch_) {
      FlushNow(/*timer_flush=*/false, "batch_flush_full");
    }
  }

  // Flushes whatever is pending (no-op when empty).
  void Flush() {
    if (!items_.empty()) {
      FlushNow(/*timer_flush=*/false, "batch_flush_manual");
    }
  }

  size_t pending() const { return items_.size(); }

  // batch_items / batch_flush_{full,timer,manual}.
  const Counters& counters() const { return counters_; }
  // Distribution of flushed batch sizes.
  const Histogram& batch_sizes() const { return batch_sizes_; }

 private:
  void ArmTimer() {
    const uint64_t armed_for = generation_;
    engine_->ScheduleAfter(max_delay_, [this, armed_for] {
      // A stale timer (its batch already flushed by size) must not flush
      // the batch that has started accumulating since.
      if (generation_ == armed_for && !items_.empty()) {
        FlushNow(/*timer_flush=*/true, "batch_flush_timer");
      }
    });
  }

  void FlushNow(bool timer_flush, const char* counter) {
    ++generation_;
    std::vector<T> batch;
    batch.swap(items_);
    counters_.Increment(counter);
    batch_sizes_.Record(batch.size());
    flush_(std::move(batch), timer_flush);
  }

  Engine* engine_;
  uint32_t max_batch_;
  Duration max_delay_;
  FlushFn flush_;
  std::vector<T> items_;
  uint64_t generation_ = 0;
  Counters counters_;
  Histogram batch_sizes_;
};

}  // namespace hyperion::sim

#endif  // HYPERION_SRC_SIM_FLOW_H_
