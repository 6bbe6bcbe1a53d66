// Deterministic load generation for overload experiments (PR 5).
//
// The hockey-stick curves of E13 need two request sources:
//
//   * open loop — arrivals at a fixed spacing regardless of completions.
//     This is the overload regime: offered load is an independent variable,
//     and a server without admission control accumulates unbounded queueing.
//   * closed loop — N clients, each with at most one request outstanding,
//     issuing the next one `think_time` after the previous completes. Load
//     self-limits, the classic contrast to the open-loop curve.
//
// LoadGen is sink-agnostic: the IssueFn may drive an OverloadPipeline (one
// engine) or a ShardedRpcNode (a shard of a ParallelEngine) — both are just
// "issue request seq with this absolute deadline, call done once". All
// arrival times are pure functions of the options, so runs are bit-stable.

#ifndef HYPERION_SRC_LOAD_LOADGEN_H_
#define HYPERION_SRC_LOAD_LOADGEN_H_

#include <cstdint>
#include <functional>

#include "src/common/result.h"
#include "src/dpu/rpc.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace hyperion::load {

enum class Outcome : uint8_t {
  kOk = 0,    // completed successfully
  kRejected,  // shed by admission control or backpressure (resource exhausted)
  kFailed,    // any other error
};

// An RPC completion as a load outcome: kResourceExhausted is admission's
// fast reject; any other error, transport or service, failed.
Outcome OutcomeOf(const Result<dpu::RpcResponse>& response);

struct LoadGenOptions {
  bool open_loop = true;
  // Open loop: fixed inter-arrival spacing; offered load = 1/interarrival.
  sim::Duration interarrival = 10 * sim::kMicrosecond;
  // Closed loop: concurrent clients and think time between a client's
  // completion and its next issue.
  uint32_t clients = 8;
  sim::Duration think_time = 0;
  uint32_t total_requests = 1000;
  // Per-request deadline relative to its issue time (0 = none).
  sim::Duration deadline = 0;
  // Virtual time of the first arrival.
  sim::SimTime start = 1000;
};

struct LoadStats {
  uint64_t issued = 0;
  uint64_t ok = 0;               // completed successfully within the deadline
  uint64_t rejected = 0;         // shed (the fast-reject path)
  uint64_t failed = 0;           // hard errors
  uint64_t deadline_missed = 0;  // completed kOk but past the deadline
  sim::SimTime first_issue = 0;
  sim::SimTime last_completion = 0;

  // Goodput denominator: everything that came back one way or another.
  uint64_t completed() const { return ok + rejected + failed + deadline_missed; }
};

class LoadGen {
 public:
  using DoneFn = std::function<void(Outcome)>;
  // `seq` is the request's 0-based sequence number; `deadline` is absolute
  // virtual time (sim::Engine::kNever when none). The sink must invoke
  // `done` exactly once, at the request's completion time.
  using IssueFn = std::function<void(uint64_t seq, sim::SimTime deadline, DoneFn done)>;

  LoadGen(sim::Engine* engine, const LoadGenOptions& options, IssueFn issue);

  // Schedules the arrival process on the engine; the caller drives it
  // (Engine::Run or the enclosing ParallelEngine).
  void Start();

  bool Finished() const { return completed_ == options_.total_requests; }
  const LoadGenOptions& options() const { return options_; }
  const LoadStats& stats() const { return stats_; }
  // Latency of requests that completed kOk within their deadline.
  const sim::Histogram& latency() const { return latency_; }

 private:
  void IssueNext();                 // open-loop arrival chain
  void IssueClient(uint32_t client);
  // client < 0 marks an open-loop request (no follow-up issue).
  void Fire(uint64_t seq, int32_t client);

  sim::Engine* engine_;
  LoadGenOptions options_;
  IssueFn issue_;
  uint64_t next_seq_ = 0;
  uint64_t completed_ = 0;
  LoadStats stats_;
  sim::Histogram latency_;
};

}  // namespace hyperion::load

#endif  // HYPERION_SRC_LOAD_LOADGEN_H_
