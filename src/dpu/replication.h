// Replicated, failover-safe KV on the Corfu shared log (paper §2.4: the
// blueprint's network-attached storage units "support Corfu consensus", and
// §3's fault-tolerance argument needs a node death to cost no acknowledged
// data without any host CPU in the loop).
//
// The design follows the client-driven "passive disaggregation" doctrine
// (paper §2.4; ShardedKvClient in src/dpu/distributed.h partitions on it):
// the DPUs serve a dumb fast path (write-once log positions, last-writer-wins
// KV apply, epoch checks) and every smart step — chain placement, failure
// detection, seal, tail recovery, repair — runs in the client library. Per
// shard group of R replicas:
//
//   * Sequencing: the head (first live replica) hands out positions from
//     its durable CorfuLog sequencer (CorfuLog::Reserve).
//   * Writes: the client chains the entry through the live replicas in
//     index order (head first) and acknowledges only after every live
//     replica applied it — write-all.
//   * Reads: served by the tail (last live replica). The chain order makes
//     each replica's log a superset of its successors', so the tail only
//     ever exposes writes present on every live replica; no failover can
//     retract a value a read observed (the chain-replication read rule).
//   * Apply: each replica is a state machine over its log — the entry also
//     applies to the replica's KvStore as last-writer-wins by position, so
//     replay order never matters and repair copies are idempotent.
//
// Failover (node kill → epoch seal → tail recovery → new sequencer), all
// client-driven: a client that sees kUnavailable accuses the replica, bumps
// the epoch, seals every live replica (a sealed replica rejects all older
// epochs, so in-flight stale writes die), collects the maximum log tail,
// repairs [trim, tail) by copying entries across replicas (junk-filling
// positions no survivor holds), hands the recovered tail to the new head,
// and retries under the new view. Seal and repair are idempotent, so any
// number of clients may race through recovery concurrently. A replica
// rejecting a stale epoch returns its current {epoch, dead set} in the
// response payload, so lagging clients resync from the rejection itself.
//
// Determinism: replicas share no mutable state; every cross-node
// interaction is a ShardedRpcNode frame; node kill is decided on the
// victim's own shard (its FaultInjector, queried at each protocol boundary
// in its serve order) — so results are bit-identical across shard layouts,
// kills included.

#ifndef HYPERION_SRC_DPU_REPLICATION_H_
#define HYPERION_SRC_DPU_REPLICATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/dpu/cluster.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/rpc.h"
#include "src/sim/fault.h"
#include "src/sim/parallel.h"
#include "src/sim/stats.h"
#include "src/storage/corfu.h"
#include "src/storage/kv.h"

namespace hyperion::dpu {

// RPC opcodes for ServiceId::kRepKv. All requests lead with the caller's
// epoch; a mismatch answers kAborted with [epoch u32][dead u64] so the
// caller can resync.
struct RepOp {
  static constexpr uint16_t kReserve = 1;    // [epoch u32] -> [position u64]
  static constexpr uint16_t kWrite = 2;      // [epoch u32][position u64][entry] -> []
  static constexpr uint16_t kRead = 3;       // [epoch u32][key u64] -> [present u8][stamp u64][len u32][value]
  static constexpr uint16_t kSeal = 4;       // [epoch u32][dead u64] -> [tail u64]
  static constexpr uint16_t kAdoptTail = 5;  // [epoch u32][tail u64] -> []
  static constexpr uint16_t kReadAt = 6;     // [epoch u32][position u64] -> [entry]
  static constexpr uint16_t kFill = 7;       // [epoch u32][position u64] -> []
};

// Log entry payload: [kind u8][key u64][len u32][value].
struct RepEntryKind {
  static constexpr uint8_t kPut = 1;
};

// One replica: a CorfuLog (the replicated history) plus a KvStore (the
// state machine materialized from it), served under ServiceId::kRepKv on
// the DPU's RPC server. KV values are framed [stamp u64][present u8][value]
// where stamp = log position + 1 (0 = preload), so apply is last-writer-
// wins by position and replay/repair order never matters.
class ReplicatedKvService {
 public:
  static Result<std::unique_ptr<ReplicatedKvService>> Install(Hyperion* dpu);

  // Hooks the node kill fault site (null detaches). Queried at every
  // protocol boundary in this replica's serve order: request entry
  // (reserve / chain write / read / seal arrival) and post-apply pre-ack
  // (the write applied but the acknowledgement evaporates with the node).
  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  // Kills the node now (scheduled-kill harness path): every subsequent
  // request answers kUnavailable for a fixed NIC-level refusal cost.
  void Kill() { dead_ = true; }
  bool dead() const { return dead_; }

  uint32_t epoch() const { return epoch_; }
  uint64_t dead_mask() const { return dead_mask_; }

  // Preload path (no wire, no log entry): installs `value` under stamp 0 so
  // a warm dataset exists before the measured phase.
  Status PreloadPut(uint64_t key, ByteSpan value);

  // Reads a key's applied state directly (audit path, post-run).
  // Returns {stamp, present, value}.
  struct Applied {
    uint64_t stamp = 0;
    bool present = false;
    Bytes value;
  };
  Result<Applied> ReadApplied(uint64_t key);

  // Deterministic digest of the full applied state (audit path): folds
  // every (key, stamp, present, value) in key order. Two replicas that
  // converged are bit-identical iff their digests match.
  uint64_t StateDigest();

  const sim::Counters& counters() const { return counters_; }

 private:
  explicit ReplicatedKvService(Hyperion* dpu) : dpu_(dpu) {}

  RpcResponse Handle(uint16_t opcode, const Buffer& payload);
  RpcResponse HandleSeal(ByteReader& reader);
  // True once this call decided the node dies here (injector fired or the
  // node was already dead).
  bool KillBoundary();
  RpcResponse StaleEpoch() const;
  // Applies a decoded log entry to the KV state machine (last-writer-wins
  // by stamp); `stamp` = position + 1.
  Status Apply(uint64_t stamp, uint64_t key, ByteSpan value);

  Hyperion* dpu_;
  std::unique_ptr<storage::CorfuLog> log_;
  std::unique_ptr<storage::KvStore> kv_;
  sim::FaultInjector* injector_ = nullptr;
  bool dead_ = false;
  uint32_t epoch_ = 0;
  uint64_t dead_mask_ = 0;
  // Sealed into epoch_ but the recovered tail has not been adopted yet:
  // refuse to sequence, or fresh positions could collide with the prefix
  // still under repair. Cleared by kAdoptTail.
  bool awaiting_tail_ = false;
  sim::Counters counters_;
};

// The smart client: key → group placement, chain writes, tail reads, and
// the whole failover path. One instance per client node; holds a private
// {epoch, dead set} view per group and shares no state with other clients
// (views resync through kAborted rejections), which is what keeps the
// sharded simulation deterministic.
class ReplicatedKvClient {
 public:
  using PutDone = std::function<void(Status, uint64_t position)>;
  using GetDone = std::function<void(Status, bool present, uint64_t stamp, Bytes value)>;

  // `replicas` lists every replica endpoint, grouped: replica r of group g
  // is replicas[g * replicas_per_group + r]. Chain order inside a group is
  // index order. Must be driven from `self`'s shard.
  ReplicatedKvClient(sim::ParallelEngine* engine, ShardedRpcNode* self,
                     std::vector<ShardedRpcNode*> replicas, uint32_t groups,
                     uint32_t replicas_per_group);

  void PutAsync(uint64_t key, Bytes value, PutDone done);
  void GetAsync(uint64_t key, GetDone done);

  uint32_t GroupOf(uint64_t key) const;

  // rep_failovers / rep_seals / rep_repair_copies / rep_repair_fills /
  // rep_stale_epoch / rep_retries / rep_reserve_conflicts /
  // rep_partial_abandons (ops failed between chain start and ack — the
  // write may exist on a prefix of the chain; linearizability treats these
  // as ambiguous).
  const sim::Counters& counters() const { return counters_; }

 private:
  struct View {
    uint32_t epoch = 0;
    uint64_t dead = 0;
  };
  struct Op;
  struct Recovery;

  sim::Engine& shard_engine();
  sim::SimTime Now();
  // First replica index >= `from` not in the accusation mask `dead`;
  // replicas_per_group_ when there is none.
  uint32_t NextLive(uint64_t dead, uint32_t from) const;
  // Last live replica index per the group view; replicas_per_group_ when
  // every replica is accused.
  uint32_t TailOf(uint32_t group) const;
  // Every request goes out here: `opcode` with `payload` to replica `index`
  // of `group`, under the op's absolute `deadline`. `reply` runs on this
  // client's shard.
  void Send(uint32_t group, uint32_t index, uint16_t opcode, sim::SimTime deadline,
            Bytes payload, ShardedRpcNode::Completion reply);

  void Start(std::shared_ptr<Op> op);
  void Attempt(std::shared_ptr<Op> op);
  void SendReserve(std::shared_ptr<Op> op);
  void SendNextWrite(std::shared_ptr<Op> op);
  void SendRead(std::shared_ptr<Op> op);
  // Shared failure routing for an RPC answered by replica `index` of the
  // op's group. `mid_chain` marks a failure after at least one chain write
  // landed (an abandoned op may exist on a chain prefix).
  void OnFailure(std::shared_ptr<Op> op, uint32_t index, const RpcResponse& response,
                 bool mid_chain);
  void Backoff(std::shared_ptr<Op> op);
  void Finish(std::shared_ptr<Op> op, Status status);
  // Adopts a config carried by a kAborted rejection; returns true when the
  // payload parsed and moved the view forward.
  bool AdoptConfig(uint32_t group, const Buffer& payload);

  // Failover: seal → collect tails → repair → adopt tail → retry op.
  void StartRecovery(std::shared_ptr<Op> op, uint64_t accused, uint32_t target_epoch);
  void SealNext(std::shared_ptr<Recovery> rec);
  void RepairNext(std::shared_ptr<Recovery> rec);
  void RepairRead(std::shared_ptr<Recovery> rec, uint32_t from);
  void RepairWrite(std::shared_ptr<Recovery> rec, uint32_t to, bool fill);
  void AdoptRecoveredTail(std::shared_ptr<Recovery> rec);
  // Ends `rec` on a failed reply from replica `index`: kUnavailable accuses
  // it and recovers one epoch higher, kAborted adopts the higher epoch the
  // rejection carries and retries the op, anything else fails the op.
  void RecoveryFailed(std::shared_ptr<Recovery> rec, uint32_t index,
                      const RpcResponse& response);

  sim::ParallelEngine* engine_;
  ShardedRpcNode* self_;
  std::vector<ShardedRpcNode*> replicas_;
  uint32_t groups_;
  uint32_t replicas_per_group_;
  std::vector<View> views_;
  sim::Counters counters_;
};

// -- Replicated cluster harness ----------------------------------------------

// One linearizability-history record. Tags are caller-chosen u64 values
// carried in the first 8 bytes of every put value, unique per put, so a
// read's observed tag identifies exactly which write it saw.
struct RepHistOp {
  static constexpr uint8_t kPut = 0;
  static constexpr uint8_t kGet = 1;
  uint8_t kind = kPut;
  uint32_t client = 0;  // global client id
  uint64_t key = 0;
  uint64_t tag = 0;  // put: tag written; get: tag observed (0 = absent)
  sim::SimTime invoke_ns = 0;
  sim::SimTime return_ns = 0;
  bool ok = false;  // acked; a failed put is ambiguous (may have applied)
};

// Everything observable a replicated run produces, in deterministic form:
// equality across shard layouts is the determinism oracle, kills
// included.
struct RepClusterResult {
  uint64_t ok_puts = 0;
  uint64_t ok_gets = 0;
  uint64_t failed_ops = 0;
  uint64_t failovers = 0;
  uint64_t seals = 0;
  uint64_t repair_copies = 0;
  uint64_t repair_fills = 0;
  uint64_t stale_epoch = 0;
  uint64_t retries = 0;
  uint64_t partial_abandons = 0;
  uint64_t killed_nodes = 0;
  uint64_t events_run = 0;
  uint64_t messages = 0;
  sim::SimTime start_ns = 0;
  sim::SimTime makespan_ns = 0;
  uint64_t latency_count = 0;
  uint64_t latency_p50_ns = 0;
  uint64_t latency_p99_ns = 0;
  uint64_t latency_max_ns = 0;
  std::vector<uint32_t> group_epochs;
  // Folds every live replica's StateDigest in node order: divergence
  // between group members (or across layouts) shows here.
  uint64_t state_digest = 0;
  uint64_t history_digest = 0;

  bool operator==(const RepClusterResult&) const = default;
};

// Post-run audit: every acknowledged write re-read from every live replica.
struct RepAudit {
  uint64_t acked = 0;         // put records audited
  uint64_t lost = 0;          // replica's stamp below the acked position
  uint64_t mismatched = 0;    // stamp matches but the value tag does not
  uint64_t divergent = 0;     // groups whose live replicas' digests differ
  bool ok() const { return lost == 0 && mismatched == 0 && divergent == 0; }
};

struct RepClusterOptions : ClusterBaseOptions {
  uint32_t groups = 2;
  uint32_t replicas_per_group = 3;
  ClusterWorkload workload;  // value_bytes must be >= 8 (the tag)
  // Kill schedule, two deterministic forms (kill_node < groups x
  // replicas_per_group, CHECKed whenever either is set):
  //   * kill_at_boundary: FaultPlan::AtQuery(kNodeKill, skip) on the victim
  //     — the fault-matrix primitive, landing the kill at exactly the Nth
  //     protocol boundary the victim serves.
  //   * kill_after_ns: the victim dies at start + kill_after_ns virtual
  //     time (the kill-mid-bench experiment).
  static constexpr uint64_t kNoKill = ~0ull;
  uint32_t kill_node = 0;
  uint64_t kill_at_boundary = kNoKill;
  sim::SimTime kill_after_ns = 0;  // 0 = disabled
};

// groups × replicas_per_group full Hyperion nodes, each also hosting a
// closed-loop client population driving puts/gets through its
// ReplicatedKvClient, on the shared dpu::Cluster mechanism.
class ReplicatedKvCluster : public Cluster {
 public:
  explicit ReplicatedKvCluster(const RepClusterOptions& options);

  ReplicatedKvService& service(uint32_t node) { return *this->node<Replica>(node).service; }

  // Runs the workload to quiescence and snapshots the result. One-shot.
  RepClusterResult Run();

  // Valid after Run(): the merged history (sorted by invoke time, then
  // client, then record order) and the acked-write audit.
  std::vector<RepHistOp> History() const;
  RepAudit AuditAckedWrites();

  // Kills the victim's protocol boundaries observed in a fault-free run:
  // the fault-matrix sweep uses this to size its boundary range.
  uint64_t VictimBoundaries(uint32_t node) const;

  // The tag preloaded under every key before the measured phase (the
  // linearizability checker's initial register value).
  static uint64_t PreloadTag(uint64_t key) { return (0x7Full << 56) | key; }

 private:
  struct AckedPut {
    uint32_t group = 0;
    uint64_t key = 0;
    uint64_t position = 0;
    uint64_t tag = 0;
  };
  struct Replica : Node {
    std::unique_ptr<ReplicatedKvService> service;
    std::unique_ptr<ReplicatedKvClient> client;
    std::unique_ptr<sim::FaultInjector> injector;  // victim only
    std::vector<uint64_t> next_seq;  // per client: tags its next put carries
    std::vector<RepHistOp> history;
    std::vector<AckedPut> acked;
  };

  Replica& replica(uint32_t group, uint32_t r) {
    return node<Replica>(group * options_.replicas_per_group + r);
  }
  void IssueOp(const ClientOp& op);
  Bytes TaggedValue(uint64_t tag) const;

  RepClusterOptions options_;
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_REPLICATION_H_
