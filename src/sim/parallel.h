// Parallel discrete-event simulation across sharded engines.
//
// The cluster experiments (multi-DPU KV, replicated logs, partitioned graph
// analytics) used to serialize every simulated node through one sim::Engine.
// This layer shards the simulation: each shard owns a private Engine, and
// shards interact only through timestamped cross-shard messages. Every
// shard's window runs on the caller's thread, round-robin within an epoch:
// the simulation is in virtual time, so threads could change only its host
// cost, and with 1-3 events per barrier a worker per shard made it slower
// (EXPERIMENTS.md E11). Sharding stays as the layout-invariance oracle.
//
// Synchronization is conservative PDES with one lookahead L: a lower bound
// on how far in the future any message lands after its sender's clock (the
// smallest declared link latency, falling back to kLookaheadFloor). Each
// epoch every shard gets its own horizon
//
//     horizon(d) = min(next(d) + 2L, min over shards s != d of (next(s) + L))
//
// where next(s) is s's earliest pending event. A message that could still
// reach d either comes from another shard s, sent by an event at
// t >= next(s), or is d's own output coming back through another shard,
// which takes at least two hops; so nothing can arrive at d before
// horizon(d), and running d's events strictly below it is safe. With one
// shard the horizon is infinite and the whole simulation drains in a single
// epoch. Idle shards (next(d) >= horizon(d)) are skipped.
//
// Post() schedules every message straight into its destination shard's
// engine. A message posted from shard s lands at or after next(s) + L, so
// at or after every other shard's horizon: it never falls inside a window
// that has already run. Its order is fixed by an explicit (delivery time,
// source id, per-source seq) key (Engine::ScheduleMessage), and at equal
// timestamps messages sort before locally scheduled events. Source ids are
// logical (registration order) and per-source sequences are assigned in the
// source's own deterministic execution order, so the execution order — and
// therefore the full event trace — is bit-identical whether the same
// logical sources are spread over 1 shard or N.

#ifndef HYPERION_SRC_SIM_PARALLEL_H_
#define HYPERION_SRC_SIM_PARALLEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace hyperion::sim {

struct ParallelEngineStats {
  uint64_t epochs = 0;      // barrier rounds executed
  uint64_t events_run = 0;  // events executed across all shards
  uint64_t messages = 0;    // messages posted
  uint64_t cross_shard_messages = 0;  // subset whose src/dst shards differ
  uint64_t max_outbox = 0;        // most cross-shard posts between two barriers
  uint64_t self_delivered = 0;    // subset whose src/dst shards are the same
  uint64_t windows_run = 0;       // per-shard windows actually executed
  uint64_t windows_skipped = 0;   // idle shards skipped at a barrier
};

// Sharded conservative-lookahead event engine. See file comment.
class ParallelEngine {
 public:
  // Lower bound asserted on every declared link latency, and the lookahead
  // when none is declared. DeclareLinkLatency() raises the lookahead above
  // the floor; Post() CHECK-fails any message posted sooner than it.
  static constexpr Duration kLookaheadFloor = 100;  // ns

  explicit ParallelEngine(uint32_t num_shards);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  uint32_t num_shards() const { return num_shards_; }
  Engine& shard(uint32_t s);

  // Registers a logical message source homed on `shard` and returns its id.
  // Registration order is the deterministic tie-break between sources, so
  // register in a layout-independent order (e.g. node id order).
  uint32_t AddSource(uint32_t shard);

  // Declares that some link can deliver a message `min_latency` after it is
  // sent (>= kLookaheadFloor — CHECK; call before Run()). The lookahead is
  // the smallest declared latency.
  void DeclareLinkLatency(Duration min_latency);
  Duration lookahead() const {
    return declared_ == Engine::kNever ? kLookaheadFloor : declared_;
  }

  // Posts a message from `source`: `fn` runs on the destination shard's
  // engine at virtual time `when`. Must be called from an event on the
  // source's shard, or before Run(); CHECKs the lookahead invariant
  // `when >= source-shard Now() + lookahead()`, and that `when` is not in
  // the destination shard's past.
  void Post(uint32_t source, uint32_t dst_shard, SimTime when, EventFn fn);

  // Runs epochs until global quiescence (no pending events). Returns the
  // number of events executed.
  uint64_t Run();

  const ParallelEngineStats& stats() const { return stats_; }

 private:
  struct Source {
    uint32_t shard = 0;
    uint64_t next_seq = 0;
  };

  static SimTime SatAdd(SimTime a, SimTime b) {
    return a >= Engine::kNever - b ? Engine::kNever : a + b;
  }

  // Barrier: fills next_[d] with each shard's earliest pending event and
  // returns the global minimum.
  SimTime ComputeNextTimes();
  void ComputeHorizons();
  // Runs every shard with next_[d] < horizon_[d] over its window, in shard
  // order.
  void RunWindows();

  uint32_t num_shards_ = 0;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<Source> sources_;
  ParallelEngineStats stats_;
  bool running_ = false;
  Duration declared_ = Engine::kNever;  // smallest declared link latency
  uint64_t posted_since_barrier_ = 0;   // cross-shard posts since the last barrier

  // Barrier scratch.
  std::vector<SimTime> next_;
  std::vector<SimTime> horizon_;
};

}  // namespace hyperion::sim

#endif  // HYPERION_SRC_SIM_PARALLEL_H_
