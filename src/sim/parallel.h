// Parallel discrete-event simulation across sharded engines (PR 3, rebuilt
// in PR 7 for per-channel lookahead and allocation-free exchange).
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
// Synchronization is conservative PDES with a *lookahead matrix*: L[s][d]
// is a lower bound on how far in the future a message from shard s to
// shard d must land (per-channel declared latencies, falling back to the
// global declared minimum, falling back to kLookaheadFloor). From L the
// coordinator derives the all-pairs shortest influence distance dist(s, d)
// — the minimum latency over any multi-hop path s -> ... -> d, including
// cycles back to d itself — and gives every shard its own horizon each
// epoch:
//
//     horizon(d) = min over shards s of (next(s) + dist(s, d))
//
// where next(s) is s's earliest pending event or undelivered inbound
// message. Any message that could still reach d was either already pending
// somewhere at time next(s) or will be emitted by an event at t >= next(s),
// and each hop adds at least its edge latency, so nothing can arrive at d
// before horizon(d): running d's events strictly below horizon(d) is safe.
// With one shard (or no path back), dist is infinite and the whole
// simulation drains in a single epoch. Wider per-shard horizons mean fewer
// barriers than the classic single-window [E, E + min L) scheme, and idle
// shards (next(d) >= horizon(d)) are skipped.
//
// Determinism does not depend on *when* a message is merged: every
// message carries an explicit (delivery time, source id, per-source seq)
// key into the destination engine (Engine::ScheduleMessage), and at equal
// timestamps messages sort before locally scheduled events. Source ids are
// logical (registration order) and per-source sequences are assigned in the
// source's own deterministic execution order, so the execution order — and
// therefore the full event trace — is bit-identical whether the same
// logical sources are spread over 1 shard or N, and regardless of which
// epoch window delivered each message. This is also what lets same-shard
// messages skip the exchange entirely and be scheduled directly into the
// home engine.
//
// The exchange itself is allocation-free in steady state: each shard keeps
// one outbox vector per destination, the barrier swaps it with the
// destination's inbox vector (capacities ping-pong), and the destination
// schedules its own inbox at window start. No global sort: the explicit
// keys order messages inside the engines.

#ifndef HYPERION_SRC_SIM_PARALLEL_H_
#define HYPERION_SRC_SIM_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace hyperion::sim {

struct ParallelEngineStats {
  uint64_t epochs = 0;      // barrier rounds executed
  uint64_t events_run = 0;  // events executed across all shards
  uint64_t messages = 0;    // channel messages delivered
  uint64_t cross_shard_messages = 0;  // subset whose src/dst shards differ
  uint64_t max_outbox = 0;        // largest per-barrier exchange
  uint64_t self_delivered = 0;    // same-shard messages that skipped the exchange
  uint64_t windows_run = 0;       // per-shard windows actually executed
  uint64_t windows_skipped = 0;   // idle shards skipped at a barrier
};

// Sharded conservative-lookahead event engine. See file comment.
class ParallelEngine {
 public:
  // Lower bound asserted on every declared link latency, and the fallback
  // lookahead for links with no declared latency. DeclareLinkLatency()
  // raises the effective lookahead above the floor, globally or per
  // directed shard pair; Post() CHECK-fails any message posted sooner than
  // its pair's effective lookahead.
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
  uint32_t source_shard(uint32_t source) const;

  // Declares that some channel can deliver a message `min_latency` after it
  // is sent (>= kLookaheadFloor — CHECK; call before Run()). The global
  // form bounds every directed shard pair; the pair form bounds one edge,
  // letting slow links buy wider windows for everyone else.
  void DeclareLinkLatency(Duration min_latency);
  void DeclareLinkLatency(uint32_t src_shard, uint32_t dst_shard, Duration min_latency);
  // Minimum effective lookahead over all directed pairs (the classic single
  // window width; benches use it to place safely-deliverable sends).
  Duration lookahead() const;
  // Effective lookahead of one directed shard pair.
  Duration lookahead(uint32_t src_shard, uint32_t dst_shard) const;

  // Registers a fixed (source, destination shard) messaging edge and
  // returns its id. A nonzero `min_latency` declares the pair's link
  // latency. Channel<T> uses this so repeated sends carry no per-message
  // routing state.
  uint32_t RegisterChannel(uint32_t source, uint32_t dst_shard, Duration min_latency = 0);

  // Posts a message from `source`: `fn` runs on the destination shard's
  // engine at virtual time `when`. Must be called from an event on the
  // source's shard, or before Run(); CHECKs the lookahead invariant
  // `when >= source-shard Now() + lookahead(src_shard, dst_shard)`.
  void Post(uint32_t source, uint32_t dst_shard, SimTime when, EventFn fn);

  // Posts on a registered channel edge (same invariants as Post).
  void PostChannel(uint32_t channel_id, SimTime when, EventFn fn) {
    const ChannelEdge& edge = channels_[channel_id];
    Post(edge.source, edge.dst_shard, when, std::move(fn));
  }

  // Runs epochs until global quiescence (no pending events, no undelivered
  // messages). Returns the total number of events executed.
  uint64_t Run();

  const ParallelEngineStats& stats() const { return stats_; }

 private:
  struct Message {
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t source = 0;
    EventFn fn;
  };

  struct ChannelEdge {
    uint32_t source = 0;
    uint32_t dst_shard = 0;
  };

  // One shard: a private engine, per-destination outboxes its events fill
  // during a window, and per-source inboxes the barrier swaps full outboxes
  // into.
  struct Shard {
    std::unique_ptr<Engine> engine;
    std::vector<std::vector<Message>> outbox;  // [dst_shard]
    std::vector<SimTime> outbox_min;           // earliest `when` per outbox
    std::vector<std::vector<Message>> inbox;   // [src_shard], undelivered
    SimTime inbox_min = Engine::kNever;        // earliest undelivered `when`
    uint64_t executed = 0;
    uint64_t self_delivered = 0;
  };

  struct Source {
    uint32_t shard = 0;
    uint64_t next_seq = 0;
  };

  static SimTime SatAdd(SimTime a, SimTime b) {
    return a >= Engine::kNever - b ? Engine::kNever : a + b;
  }

  // Builds the effective-lookahead and influence-distance matrices from the
  // declared latencies (idempotent; cheap flag check when clean).
  void EnsureMatrices();
  // Barrier, between windows: swaps every non-empty outbox into its
  // destination's inbox (O(1) per pair) and tallies exchange stats.
  void ExchangeOutboxes();
  // Fills next_[d] = earliest pending event or undelivered message per
  // shard; returns the global minimum.
  SimTime ComputeNextTimes();
  void ComputeHorizons();
  // Runs every shard with next_[d] < horizon_[d] over its window, in shard
  // order.
  void RunWindows();
  // Schedules a shard's undelivered inbox into its engine (window start).
  void DeliverInbox(Shard& sh);
  uint64_t TotalExecuted() const;

  uint32_t num_shards_ = 0;
  std::vector<Shard> shards_;
  std::vector<Source> sources_;
  std::vector<ChannelEdge> channels_;
  ParallelEngineStats stats_;
  bool running_ = false;

  // Declared link latencies (kNever = undeclared) and the derived matrices.
  Duration global_declared_ = Engine::kNever;
  std::vector<Duration> pair_declared_;  // [s * num_shards_ + d]
  std::vector<Duration> l_eff_;          // effective lookahead per pair
  std::vector<SimTime> dist_;            // min influence distance per pair
  bool matrices_ready_ = false;

  // Barrier scratch.
  std::vector<SimTime> next_;
  std::vector<SimTime> horizon_;
};

// Typed cross-shard channel: a fixed (source, destination shard) edge that
// delivers `T` values to a receiver callback on the destination shard. The
// channel (and its receiver) must outlive every in-flight message; sends
// capture `this`, so the channel is neither copyable nor movable.
template <typename T>
class Channel {
 public:
  // Receiver runs on the destination shard's engine at delivery time.
  using Receiver = std::function<void(T, SimTime when)>;

  // A nonzero `min_latency` declares this edge's link latency, feeding the
  // per-pair lookahead matrix (see ParallelEngine::DeclareLinkLatency).
  Channel(ParallelEngine* engine, uint32_t source, uint32_t dst_shard, Receiver receiver,
          Duration min_latency = 0)
      : engine_(engine),
        source_(source),
        dst_shard_(dst_shard),
        id_(engine->RegisterChannel(source, dst_shard, min_latency)),
        receiver_(std::move(receiver)) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  uint32_t id() const { return id_; }
  uint32_t source() const { return source_; }
  uint32_t dst_shard() const { return dst_shard_; }

  // Posts `value` for delivery at `when` (subject to the lookahead CHECK).
  // Non-allocating for payloads up to ~100 bytes: the closure is built in
  // EventFn inline storage and relocated into the destination engine's
  // pooled event node — no boxed receiver, no per-message heap traffic.
  void Send(SimTime when, T value) {
    engine_->PostChannel(id_, when, EventFn([this, when, v = std::move(value)]() mutable {
                           receiver_(std::move(v), when);
                         }));
  }

 private:
  ParallelEngine* engine_;
  uint32_t source_;
  uint32_t dst_shard_;
  uint32_t id_;
  Receiver receiver_;  // stable address: channel is pinned for in-flight sends
};

}  // namespace hyperion::sim

#endif  // HYPERION_SRC_SIM_PARALLEL_H_
