#include "src/dpu/replication.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/dpu/distributed.h"

namespace hyperion::dpu {

namespace {

// Shell datapath cost per replicated request (same pipeline as the plain
// services), and the cheaper NIC-level refusal a dead node charges.
constexpr sim::Duration kShellCost = 1200;
constexpr sim::Duration kDeadRefuseCost = 300;

// Segment-id spaces private to the replicated service, distinct from the
// plain HyperionServices stores on the same DPU.
constexpr uint64_t kRepKvStoreId = 0x700;
constexpr uint64_t kRepLogId = 0x800;

uint64_t Fold(uint64_t digest, uint64_t x) { return (digest ^ x) * 0x100000001b3ULL; }

uint64_t FoldBytes(uint64_t digest, ByteSpan bytes) {
  digest = Fold(digest, bytes.size());
  for (uint8_t b : bytes) {
    digest = Fold(digest, b);
  }
  return digest;
}

// KV value framing on a replica: [stamp u64][present u8][value].
Bytes FrameApplied(uint64_t stamp, bool present, ByteSpan value) {
  Bytes framed;
  PutU64(framed, stamp);
  framed.push_back(present ? 1 : 0);
  PutBytes(framed, value);
  return framed;
}

}  // namespace

// -- ReplicatedKvService ------------------------------------------------------

Result<std::unique_ptr<ReplicatedKvService>> ReplicatedKvService::Install(
    Hyperion* dpu, storage::KvBackend backend) {
  if (!dpu->booted()) {
    return Unavailable("install the replicated service after Boot()");
  }
  auto service = std::unique_ptr<ReplicatedKvService>(new ReplicatedKvService(dpu));
  ASSIGN_OR_RETURN(storage::KvStore kv,
                   storage::KvStore::Create(&dpu->store(), kRepKvStoreId, backend));
  service->kv_ = std::make_unique<storage::KvStore>(std::move(kv));
  service->log_ = std::make_unique<storage::CorfuLog>(&dpu->store(), kRepLogId);
  ReplicatedKvService* raw = service.get();
  dpu->rpc().RegisterService(ServiceId::kRepKv,
                             [raw](uint16_t opcode, const Buffer& payload) {
                               return raw->Handle(opcode, payload);
                             });
  return service;
}

bool ReplicatedKvService::KillBoundary() {
  if (dead_) {
    return true;
  }
  // Counted even without an injector: the fault-matrix sweep sizes its
  // boundary range from a fault-free run's count.
  counters_.Add("rep_boundaries", 1);
  if (injector_ != nullptr && injector_->ShouldInject(sim::FaultSite::kNodeKill)) {
    dead_ = true;
  }
  return dead_;
}

RpcResponse ReplicatedKvService::StaleEpoch() const {
  ByteWriter config;
  config.PutU32(epoch_);
  config.PutU64(dead_mask_);
  return RpcResponse{Aborted("stale epoch"), Buffer(config.Take())};
}

Status ReplicatedKvService::Apply(uint64_t stamp, ByteSpan entry) {
  ByteReader reader(entry);
  const uint8_t kind = reader.ReadU8();
  const uint64_t key = reader.ReadU64();
  const uint32_t len = reader.ReadU32();
  if (!reader.Ok() || reader.remaining() < len ||
      (kind != RepEntryKind::kPut && kind != RepEntryKind::kDelete)) {
    return InvalidArgument("malformed replicated entry");
  }
  const Bytes value = reader.ReadBytes(len);
  // Last-writer-wins by stamp: replay and repair copies in any order
  // converge to the same state.
  auto existing = kv_->Get(key);
  if (existing.ok()) {
    ByteReader current(ByteSpan(existing->data(), existing->size()));
    const uint64_t current_stamp = current.ReadU64();
    if (current.Ok() && stamp <= current_stamp) {
      return Status::Ok();
    }
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  }
  const Bytes framed =
      FrameApplied(stamp, kind == RepEntryKind::kPut, ByteSpan(value.data(), value.size()));
  return kv_->Put(key, ByteSpan(framed.data(), framed.size()));
}

Status ReplicatedKvService::PreloadPut(uint64_t key, ByteSpan value) {
  const Bytes framed = FrameApplied(0, true, value);
  return kv_->Put(key, ByteSpan(framed.data(), framed.size()));
}

Result<ReplicatedKvService::Applied> ReplicatedKvService::ReadApplied(uint64_t key) {
  auto stored = kv_->Get(key);
  if (!stored.ok()) {
    if (stored.status().code() == StatusCode::kNotFound) {
      return Applied{};
    }
    return stored.status();
  }
  ByteReader reader(ByteSpan(stored->data(), stored->size()));
  Applied applied;
  applied.stamp = reader.ReadU64();
  applied.present = reader.ReadU8() != 0;
  applied.value = reader.ReadBytes(static_cast<uint32_t>(reader.remaining()));
  if (!reader.Ok()) {
    return DataLoss("malformed applied value");
  }
  return applied;
}

uint64_t ReplicatedKvService::StateDigest() {
  auto rows = kv_->Scan(0, ~0ull);
  CHECK(rows.ok());
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto& [key, framed] : *rows) {
    digest = Fold(digest, key);
    digest = FoldBytes(digest, ByteSpan(framed.data(), framed.size()));
  }
  return digest;
}

RpcResponse ReplicatedKvService::Handle(uint16_t opcode, const Buffer& payload) {
  // Every arrival is a kill boundary: reserve, chain write, read, seal —
  // the victim decides its own death, on its own shard, in serve order.
  if (KillBoundary()) {
    dpu_->engine()->Advance(kDeadRefuseCost);
    return RpcResponse::Fail(Unavailable("node killed"));
  }
  dpu_->engine()->Advance(kShellCost);
  ByteReader reader(payload);
  if (opcode == RepOp::kSeal) {
    return HandleSeal(reader);
  }
  const uint32_t epoch = reader.ReadU32();
  if (!reader.Ok()) {
    return RpcResponse::Fail(InvalidArgument("missing epoch"));
  }
  if (epoch != epoch_) {
    return StaleEpoch();
  }
  switch (opcode) {
    case RepOp::kReserve: {
      if (awaiting_tail_) {
        // Sealed into this epoch but the recovered tail has not been
        // adopted yet: refusing to sequence (rather than handing out
        // positions below the recovered tail) keeps fresh positions
        // disjoint from the repaired prefix. The caller re-drives
        // recovery; kAborted carries the config like any stale reject.
        return StaleEpoch();
      }
      ByteWriter out;
      out.PutU64(log_->Reserve());
      return RpcResponse::Ok(Buffer(out.Take()));
    }
    case RepOp::kWrite: {
      const uint64_t position = reader.ReadU64();
      if (!reader.Ok() || reader.remaining() == 0) {
        return RpcResponse::Fail(InvalidArgument("malformed replicated write"));
      }
      const Bytes entry = reader.ReadBytes(static_cast<uint32_t>(reader.remaining()));
      const ByteSpan entry_span(entry.data(), entry.size());
      Status wrote = log_->WriteAt(position, entry_span);
      if (wrote.code() == StatusCode::kAlreadyExists) {
        // Repair copies race benignly (identical bytes, applied when the
        // original landed); a junked position tells the writer to
        // re-reserve. Either way the position is settled.
        return RpcResponse::Fail(wrote);
      }
      if (!wrote.ok()) {
        return RpcResponse::Fail(wrote);
      }
      Status applied = Apply(position + 1, entry_span);
      if (!applied.ok()) {
        return RpcResponse::Fail(applied);
      }
      // Post-apply pre-ack boundary: the write is durable and applied on
      // this replica, but the acknowledgement dies with the node — the
      // at-least-once hazard the audit must absorb.
      if (KillBoundary()) {
        return RpcResponse::Fail(Unavailable("killed before ack"));
      }
      return RpcResponse::Ok();
    }
    case RepOp::kRead: {
      const uint64_t key = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed replicated read"));
      }
      auto applied = ReadApplied(key);
      if (!applied.ok()) {
        return RpcResponse::Fail(applied.status());
      }
      ByteWriter out;
      out.PutU8(applied->present ? 1 : 0);
      out.PutU64(applied->stamp);
      out.PutU32(static_cast<uint32_t>(applied->value.size()));
      out.PutBytes(ByteSpan(applied->value.data(), applied->value.size()));
      return RpcResponse::Ok(Buffer(out.Take()));
    }
    case RepOp::kAdoptTail: {
      const uint64_t tail = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed tail adoption"));
      }
      log_->AdvanceTail(tail);
      awaiting_tail_ = false;
      counters_.Add("rep_tail_adoptions", 1);
      return RpcResponse::Ok();
    }
    case RepOp::kReadAt: {
      const uint64_t position = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed position read"));
      }
      auto entry = log_->Read(position);
      if (!entry.ok()) {
        // Past this replica's tail means it simply never saw the position:
        // a hole from the repairer's point of view.
        if (entry.status().code() == StatusCode::kOutOfRange) {
          return RpcResponse::Fail(NotFound("position not on this replica"));
        }
        return RpcResponse::Fail(entry.status());
      }
      return RpcResponse::Ok(Buffer(std::move(entry).value()));
    }
    case RepOp::kFill: {
      const uint64_t position = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed fill"));
      }
      Status filled = log_->Fill(position);
      if (!filled.ok()) {
        return RpcResponse::Fail(filled);
      }
      return RpcResponse::Ok();
    }
    default:
      return RpcResponse::Fail(Unimplemented("unknown replicated KV opcode"));
  }
}

RpcResponse ReplicatedKvService::HandleSeal(ByteReader& reader) {
  const uint32_t epoch = reader.ReadU32();
  const uint64_t dead = reader.ReadU64();
  if (!reader.Ok()) {
    return RpcResponse::Fail(InvalidArgument("malformed seal"));
  }
  if (epoch < epoch_) {
    return StaleEpoch();
  }
  // Idempotent: re-seals at the current epoch union the accusation set
  // (racing recoverers converge); a higher epoch supersedes and re-arms
  // the tail-adoption gate.
  if (epoch > epoch_) {
    epoch_ = epoch;
    awaiting_tail_ = true;
  }
  dead_mask_ |= dead;
  counters_.Add("rep_seals_served", 1);
  ByteWriter out;
  out.PutU64(log_->Tail());
  return RpcResponse::Ok(Buffer(out.Take()));
}

// -- ReplicatedKvClient -------------------------------------------------------

struct ReplicatedKvClient::Op {
  static constexpr uint8_t kGetOp = 0;
  uint8_t kind = kGetOp;  // RepEntryKind::{kPut,kDelete} or kGetOp
  uint64_t key = 0;
  Bytes value;
  uint32_t group = 0;
  sim::SimTime deadline = 0;
  uint32_t attempts = 0;
  sim::Duration backoff = 0;
  uint64_t position = 0;
  uint32_t chain_next = 0;
  bool wrote_any = false;  // some chain write landed (ambiguous on failure)
  bool finished = false;
  PutDone put_done;
  GetDone get_done;
};

struct ReplicatedKvClient::Recovery {
  std::shared_ptr<Op> op;
  uint32_t group = 0;
  uint32_t target_epoch = 0;
  uint64_t dead = 0;
  uint64_t recovered_tail = 0;
  uint32_t seal_next = 0;
  uint64_t repair_pos = 0;
  Bytes entry;      // entry found for repair_pos (copy mode)
  bool fill = false;  // no survivor holds repair_pos: junk-fill it
  uint32_t write_next = 0;
  bool done = false;
};

ReplicatedKvClient::ReplicatedKvClient(sim::ParallelEngine* engine, ShardedRpcNode* self,
                                       std::vector<ShardedRpcNode*> replicas,
                                       uint32_t groups, uint32_t replicas_per_group,
                                       RepClientOptions options)
    : engine_(engine),
      self_(self),
      replicas_(std::move(replicas)),
      groups_(groups),
      replicas_per_group_(replicas_per_group),
      options_(options),
      views_(groups) {
  CHECK_EQ(replicas_.size(), size_t{groups_} * replicas_per_group_);
  CHECK_LE(replicas_per_group_, 64u);  // accusation set is a u64 mask
}

sim::Engine& ReplicatedKvClient::shard_engine() { return engine_->shard(self_->shard()); }

sim::SimTime ReplicatedKvClient::Now() { return shard_engine().Now(); }

uint32_t ReplicatedKvClient::GroupOf(uint64_t key) const {
  return static_cast<uint32_t>(KvPartitionOf(key, groups_));
}

ShardedRpcNode* ReplicatedKvClient::Replica(uint32_t group, uint32_t index) const {
  return replicas_[size_t{group} * replicas_per_group_ + index];
}

uint32_t ReplicatedKvClient::HeadOf(uint32_t group) const {
  const uint64_t dead = views_[group].dead;
  for (uint32_t r = 0; r < replicas_per_group_; ++r) {
    if ((dead & (1ull << r)) == 0) {
      return r;
    }
  }
  return replicas_per_group_;
}

uint32_t ReplicatedKvClient::TailOf(uint32_t group) const {
  const uint64_t dead = views_[group].dead;
  for (uint32_t r = replicas_per_group_; r > 0; --r) {
    if ((dead & (1ull << (r - 1))) == 0) {
      return r - 1;
    }
  }
  return replicas_per_group_;
}

RpcRequest ReplicatedKvClient::MakeRequest(uint16_t opcode, sim::SimTime deadline) const {
  RpcRequest request;
  request.service = ServiceId::kRepKv;
  request.opcode = opcode;
  request.deadline = deadline;
  return request;
}

void ReplicatedKvClient::PutAsync(uint64_t key, Bytes value, PutDone done) {
  auto op = std::make_shared<Op>();
  op->kind = RepEntryKind::kPut;
  op->key = key;
  op->value = std::move(value);
  op->put_done = std::move(done);
  Start(std::move(op));
}

void ReplicatedKvClient::DeleteAsync(uint64_t key, PutDone done) {
  auto op = std::make_shared<Op>();
  op->kind = RepEntryKind::kDelete;
  op->key = key;
  op->put_done = std::move(done);
  Start(std::move(op));
}

void ReplicatedKvClient::GetAsync(uint64_t key, GetDone done) {
  auto op = std::make_shared<Op>();
  op->kind = Op::kGetOp;
  op->key = key;
  op->get_done = std::move(done);
  Start(std::move(op));
}

void ReplicatedKvClient::Start(std::shared_ptr<Op> op) {
  op->group = GroupOf(op->key);
  op->deadline = Now() + options_.op_deadline;
  Attempt(std::move(op));
}

void ReplicatedKvClient::Finish(std::shared_ptr<Op> op, Status status) {
  if (op->finished) {
    return;
  }
  op->finished = true;
  if (!status.ok() && op->wrote_any) {
    counters_.Add("rep_partial_abandons", 1);
  }
  if (op->kind == Op::kGetOp) {
    op->get_done(std::move(status), false, 0, {});
  } else {
    op->put_done(std::move(status), op->position);
  }
}

void ReplicatedKvClient::Attempt(std::shared_ptr<Op> op) {
  if (op->finished) {
    return;
  }
  if (Now() >= op->deadline) {
    Finish(std::move(op), DeadlineExceeded("rep op deadline"));
    return;
  }
  if (++op->attempts > options_.max_attempts) {
    Finish(std::move(op), Unavailable("rep attempts exhausted"));
    return;
  }
  if (op->kind == Op::kGetOp) {
    SendRead(std::move(op));
  } else {
    SendReserve(std::move(op));
  }
}

void ReplicatedKvClient::Backoff(std::shared_ptr<Op> op) {
  if (op->finished) {
    return;
  }
  counters_.Add("rep_retries", 1);
  const sim::Duration delay =
      op->backoff == 0 ? options_.initial_backoff : op->backoff;
  op->backoff = std::min<sim::Duration>(
      static_cast<sim::Duration>(delay * options_.backoff_multiplier),
      options_.max_backoff);
  if (Now() + delay >= op->deadline) {
    Finish(std::move(op), DeadlineExceeded("rep op deadline (backoff)"));
    return;
  }
  shard_engine().ScheduleAfter(delay, [this, op] { Attempt(op); });
}

bool ReplicatedKvClient::AdoptConfig(uint32_t group, const Buffer& payload) {
  ByteReader reader(payload);
  const uint32_t epoch = reader.ReadU32();
  const uint64_t dead = reader.ReadU64();
  if (!reader.Ok()) {
    return false;
  }
  View& view = views_[group];
  if (epoch > view.epoch || (epoch == view.epoch && (dead | view.dead) != view.dead)) {
    view.epoch = std::max(view.epoch, epoch);
    view.dead |= dead;
    return true;
  }
  return false;
}

void ReplicatedKvClient::OnFailure(std::shared_ptr<Op> op, uint32_t index,
                                   const RpcResponse& response, bool mid_chain) {
  if (mid_chain) {
    op->wrote_any = true;
  }
  const uint32_t group = op->group;
  switch (response.status.code()) {
    case StatusCode::kAborted:
      // Stale epoch (or a sealed group awaiting its tail). The rejection
      // carries the replica's config: adopt it if it moves us forward;
      // otherwise the group is mid-recovery (or the replica lags) and we
      // drive recovery ourselves.
      counters_.Add("rep_stale_epoch", 1);
      if (AdoptConfig(group, response.payload)) {
        Backoff(std::move(op));
      } else {
        StartRecovery(std::move(op), views_[group].dead, views_[group].epoch + 1);
      }
      return;
    case StatusCode::kUnavailable:
      // Failure detection: accuse the silent replica and fail over.
      StartRecovery(std::move(op), views_[group].dead | (1ull << index),
                    views_[group].epoch + 1);
      return;
    case StatusCode::kAlreadyExists:
      // The position was claimed or junked under us: abandon it and
      // re-reserve a fresh one.
      counters_.Add("rep_reserve_conflicts", 1);
      Backoff(std::move(op));
      return;
    case StatusCode::kResourceExhausted:
      // Admission shed the request (PR 5): retry within the deadline.
      Backoff(std::move(op));
      return;
    default:
      Finish(std::move(op), response.status);
      return;
  }
}

void ReplicatedKvClient::SendReserve(std::shared_ptr<Op> op) {
  const uint32_t head = HeadOf(op->group);
  if (head >= replicas_per_group_) {
    Finish(std::move(op), Unavailable("all replicas accused"));
    return;
  }
  RpcRequest request = MakeRequest(RepOp::kReserve, op->deadline);
  ByteWriter payload;
  payload.PutU32(views_[op->group].epoch);
  request.payload = Buffer(payload.Take());
  self_->CallAsync(Replica(op->group, head), request,
                   [this, op, head](Result<RpcResponse> result) {
                     if (op->finished) {
                       return;
                     }
                     RpcResponse response = result.ok()
                                                ? std::move(result).value()
                                                : RpcResponse::Fail(result.status());
                     if (!response.status.ok()) {
                       OnFailure(std::move(op), head, response, false);
                       return;
                     }
                     ByteReader reader(response.payload);
                     op->position = reader.ReadU64();
                     if (!reader.Ok()) {
                       Finish(std::move(op), DataLoss("malformed reserve response"));
                       return;
                     }
                     op->chain_next = 0;
                     SendNextWrite(std::move(op));
                   });
}

void ReplicatedKvClient::SendNextWrite(std::shared_ptr<Op> op) {
  const uint64_t dead = views_[op->group].dead;
  while (op->chain_next < replicas_per_group_ &&
         (dead & (1ull << op->chain_next)) != 0) {
    ++op->chain_next;
  }
  if (op->chain_next >= replicas_per_group_) {
    // Write-all reached the end of the live chain: acknowledged.
    Finish(std::move(op), Status::Ok());
    return;
  }
  const uint32_t target = op->chain_next;
  RpcRequest request = MakeRequest(RepOp::kWrite, op->deadline);
  ByteWriter payload;
  payload.PutU32(views_[op->group].epoch);
  payload.PutU64(op->position);
  payload.PutU8(op->kind);
  payload.PutU64(op->key);
  payload.PutU32(static_cast<uint32_t>(op->value.size()));
  payload.PutBytes(ByteSpan(op->value.data(), op->value.size()));
  request.payload = Buffer(payload.Take());
  self_->CallAsync(Replica(op->group, target), request,
                   [this, op, target](Result<RpcResponse> result) {
                     if (op->finished) {
                       return;
                     }
                     RpcResponse response = result.ok()
                                                ? std::move(result).value()
                                                : RpcResponse::Fail(result.status());
                     if (!response.status.ok()) {
                       OnFailure(std::move(op), target, response, target > 0);
                       return;
                     }
                     op->wrote_any = true;
                     ++op->chain_next;
                     SendNextWrite(std::move(op));
                   });
}

void ReplicatedKvClient::SendRead(std::shared_ptr<Op> op) {
  // Reads go to the chain tail: the only replica whose state is guaranteed
  // to be a subset of every live replica's, so no failover can retract an
  // observed value.
  const uint32_t tail = TailOf(op->group);
  if (tail >= replicas_per_group_) {
    Finish(std::move(op), Unavailable("all replicas accused"));
    return;
  }
  RpcRequest request = MakeRequest(RepOp::kRead, op->deadline);
  ByteWriter payload;
  payload.PutU32(views_[op->group].epoch);
  payload.PutU64(op->key);
  request.payload = Buffer(payload.Take());
  self_->CallAsync(Replica(op->group, tail), request,
                   [this, op, tail](Result<RpcResponse> result) {
                     if (op->finished) {
                       return;
                     }
                     RpcResponse response = result.ok()
                                                ? std::move(result).value()
                                                : RpcResponse::Fail(result.status());
                     if (!response.status.ok()) {
                       OnFailure(std::move(op), tail, response, false);
                       return;
                     }
                     ByteReader reader(response.payload);
                     const bool present = reader.ReadU8() != 0;
                     const uint64_t stamp = reader.ReadU64();
                     const uint32_t len = reader.ReadU32();
                     Bytes value = reader.ReadBytes(len);
                     if (!reader.Ok()) {
                       Finish(std::move(op), DataLoss("malformed read response"));
                       return;
                     }
                     op->finished = true;
                     op->get_done(Status::Ok(), present, stamp, std::move(value));
                   });
}

// -- Failover -----------------------------------------------------------------

void ReplicatedKvClient::StartRecovery(std::shared_ptr<Op> op, uint64_t accused,
                                       uint32_t target_epoch) {
  if (op->finished) {
    return;
  }
  if (Now() >= op->deadline) {
    // A partially recovered group is safe to leave behind: seal and repair
    // are idempotent, so the next op's recovery resumes the work.
    Finish(std::move(op), DeadlineExceeded("rep op deadline (recovery)"));
    return;
  }
  counters_.Add("rep_failovers", 1);
  auto rec = std::make_shared<Recovery>();
  rec->group = op->group;
  rec->op = std::move(op);
  rec->target_epoch = target_epoch;
  rec->dead = accused;
  SealNext(std::move(rec));
}

void ReplicatedKvClient::AbandonRecovery(std::shared_ptr<Recovery> rec,
                                         const Buffer& config) {
  // A competing recovery reached a higher epoch: its seal/repair covers
  // ours, so adopt whatever config the rejection carried and retry the op.
  rec->done = true;
  AdoptConfig(rec->group, config);
  Backoff(rec->op);
}

void ReplicatedKvClient::SealNext(std::shared_ptr<Recovery> rec) {
  if (rec->done || rec->op->finished) {
    return;
  }
  while (rec->seal_next < replicas_per_group_ &&
         (rec->dead & (1ull << rec->seal_next)) != 0) {
    ++rec->seal_next;
  }
  if (rec->dead == (replicas_per_group_ == 64
                        ? ~0ull
                        : (1ull << replicas_per_group_) - 1)) {
    rec->done = true;
    Finish(rec->op, Unavailable("all replicas accused"));
    return;
  }
  if (rec->seal_next >= replicas_per_group_) {
    rec->repair_pos = 0;
    RepairNext(std::move(rec));
    return;
  }
  const uint32_t target = rec->seal_next;
  RpcRequest request = MakeRequest(RepOp::kSeal, rec->op->deadline);
  ByteWriter payload;
  payload.PutU32(rec->target_epoch);
  payload.PutU64(rec->dead);
  request.payload = Buffer(payload.Take());
  self_->CallAsync(Replica(rec->group, target), request,
                   [this, rec, target](Result<RpcResponse> result) {
                     if (rec->done || rec->op->finished) {
                       return;
                     }
                     RpcResponse response = result.ok()
                                                ? std::move(result).value()
                                                : RpcResponse::Fail(result.status());
                     if (response.status.ok()) {
                       ByteReader reader(response.payload);
                       const uint64_t tail = reader.ReadU64();
                       if (!reader.Ok()) {
                         rec->done = true;
                         Finish(rec->op, DataLoss("malformed seal response"));
                         return;
                       }
                       counters_.Add("rep_seals", 1);
                       rec->recovered_tail = std::max(rec->recovered_tail, tail);
                       ++rec->seal_next;
                       SealNext(std::move(rec));
                       return;
                     }
                     if (response.status.code() == StatusCode::kUnavailable) {
                       // Another death mid-seal: accuse it and restart the
                       // round (re-seals at the same epoch are idempotent).
                       rec->dead |= 1ull << target;
                       rec->seal_next = 0;
                       rec->recovered_tail = 0;
                       SealNext(std::move(rec));
                       return;
                     }
                     if (response.status.code() == StatusCode::kAborted) {
                       AbandonRecovery(std::move(rec), response.payload);
                       return;
                     }
                     rec->done = true;
                     Finish(rec->op, response.status);
                   });
}

void ReplicatedKvClient::RepairNext(std::shared_ptr<Recovery> rec) {
  if (rec->done || rec->op->finished) {
    return;
  }
  if (Now() >= rec->op->deadline) {
    rec->done = true;
    Finish(rec->op, DeadlineExceeded("rep op deadline (repair)"));
    return;
  }
  if (rec->repair_pos >= rec->recovered_tail) {
    AdoptRecoveredTail(std::move(rec));
    return;
  }
  rec->entry.clear();
  rec->fill = false;
  RepairRead(std::move(rec), 0);
}

void ReplicatedKvClient::RepairRead(std::shared_ptr<Recovery> rec, uint32_t from) {
  if (rec->done || rec->op->finished) {
    return;
  }
  while (from < replicas_per_group_ && (rec->dead & (1ull << from)) != 0) {
    ++from;
  }
  if (from >= replicas_per_group_) {
    // No survivor holds the position: junk-fill it everywhere so the log
    // stays prefix-readable and every replica converges to the same hole.
    rec->fill = true;
    counters_.Add("rep_repair_fills", 1);
    rec->write_next = 0;
    RepairWrite(std::move(rec), 0, true);
    return;
  }
  RpcRequest request = MakeRequest(RepOp::kReadAt, rec->op->deadline);
  ByteWriter payload;
  payload.PutU32(rec->target_epoch);
  payload.PutU64(rec->repair_pos);
  request.payload = Buffer(payload.Take());
  self_->CallAsync(
      Replica(rec->group, from), request,
      [this, rec, from](Result<RpcResponse> result) {
        if (rec->done || rec->op->finished) {
          return;
        }
        RpcResponse response = result.ok() ? std::move(result).value()
                                           : RpcResponse::Fail(result.status());
        if (response.status.ok()) {
          const ByteSpan found = response.payload.span();
          rec->entry.assign(found.begin(), found.end());
          counters_.Add("rep_repair_copies", 1);
          RepairWrite(std::move(rec), 0, false);
          return;
        }
        switch (response.status.code()) {
          case StatusCode::kNotFound:
            RepairRead(std::move(rec), from + 1);
            return;
          case StatusCode::kDataLoss:
            // Already junked at this replica (an earlier recovery): the
            // junk is authoritative, propagate it.
            rec->fill = true;
            counters_.Add("rep_repair_fills", 1);
            RepairWrite(std::move(rec), 0, true);
            return;
          case StatusCode::kUnavailable:
            rec->done = true;
            StartRecovery(rec->op, rec->dead | (1ull << from), rec->target_epoch + 1);
            return;
          case StatusCode::kAborted:
            AbandonRecovery(std::move(rec), response.payload);
            return;
          default:
            rec->done = true;
            Finish(rec->op, response.status);
            return;
        }
      });
}

void ReplicatedKvClient::RepairWrite(std::shared_ptr<Recovery> rec, uint32_t to,
                                     bool fill) {
  if (rec->done || rec->op->finished) {
    return;
  }
  while (to < replicas_per_group_ && (rec->dead & (1ull << to)) != 0) {
    ++to;
  }
  if (to >= replicas_per_group_) {
    ++rec->repair_pos;
    RepairNext(std::move(rec));
    return;
  }
  RpcRequest request =
      MakeRequest(fill ? RepOp::kFill : RepOp::kWrite, rec->op->deadline);
  ByteWriter payload;
  payload.PutU32(rec->target_epoch);
  payload.PutU64(rec->repair_pos);
  if (!fill) {
    payload.PutBytes(ByteSpan(rec->entry.data(), rec->entry.size()));
  }
  request.payload = Buffer(payload.Take());
  self_->CallAsync(
      Replica(rec->group, to), request,
      [this, rec, to, fill](Result<RpcResponse> result) {
        if (rec->done || rec->op->finished) {
          return;
        }
        RpcResponse response = result.ok() ? std::move(result).value()
                                           : RpcResponse::Fail(result.status());
        // kAlreadyExists is success here: the position is settled (another
        // recoverer or the original writer beat us to it).
        if (response.status.ok() ||
            response.status.code() == StatusCode::kAlreadyExists) {
          RepairWrite(std::move(rec), to + 1, fill);
          return;
        }
        switch (response.status.code()) {
          case StatusCode::kUnavailable:
            rec->done = true;
            StartRecovery(rec->op, rec->dead | (1ull << to), rec->target_epoch + 1);
            return;
          case StatusCode::kAborted:
            AbandonRecovery(std::move(rec), response.payload);
            return;
          default:
            rec->done = true;
            Finish(rec->op, response.status);
            return;
        }
      });
}

void ReplicatedKvClient::AdoptRecoveredTail(std::shared_ptr<Recovery> rec) {
  // New sequencer: the head resumes from the recovered tail, past every
  // position any survivor ever saw.
  uint32_t head = 0;
  while (head < replicas_per_group_ && (rec->dead & (1ull << head)) != 0) {
    ++head;
  }
  CHECK_LT(head, replicas_per_group_);
  RpcRequest request = MakeRequest(RepOp::kAdoptTail, rec->op->deadline);
  ByteWriter payload;
  payload.PutU32(rec->target_epoch);
  payload.PutU64(rec->recovered_tail);
  request.payload = Buffer(payload.Take());
  self_->CallAsync(
      Replica(rec->group, head), request,
      [this, rec, head](Result<RpcResponse> result) {
        if (rec->done || rec->op->finished) {
          return;
        }
        RpcResponse response = result.ok() ? std::move(result).value()
                                           : RpcResponse::Fail(result.status());
        if (response.status.ok()) {
          FinishRecovery(std::move(rec));
          return;
        }
        switch (response.status.code()) {
          case StatusCode::kUnavailable:
            rec->done = true;
            StartRecovery(rec->op, rec->dead | (1ull << head), rec->target_epoch + 1);
            return;
          case StatusCode::kAborted:
            AbandonRecovery(std::move(rec), response.payload);
            return;
          default:
            rec->done = true;
            Finish(rec->op, response.status);
            return;
        }
      });
}

void ReplicatedKvClient::FinishRecovery(std::shared_ptr<Recovery> rec) {
  rec->done = true;
  View& view = views_[rec->group];
  view.epoch = std::max(view.epoch, rec->target_epoch);
  view.dead |= rec->dead;
  Backoff(rec->op);
}

// -- ReplicatedKvCluster ------------------------------------------------------

ReplicatedKvCluster::ReplicatedKvCluster(const RepClusterOptions& options)
    : Cluster(options, options.groups * options.replicas_per_group), options_(options) {
  CHECK_GT(options_.groups, 0u);
  CHECK_GT(options_.replicas_per_group, 0u);
  CHECK_GE(options_.workload.value_bytes, 8u);  // tag prefix
  CHECK_GT(options_.workload.key_space, 0u);
  const bool kill_at_boundary = options_.kill_at_boundary != RepClusterOptions::kNoKill;
  if (kill_at_boundary || options_.kill_after_ns > 0) {
    CHECK_LT(options_.kill_node, num_nodes()) << "kill_node names no node";
  }

  const HyperionConfig config = NodeConfig(options_);
  std::vector<ShardedRpcNode*> replicas;
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    Replica& replica = AddDpuNode<Replica>(config);
    replica.service = ReplicatedKvService::Install(&*replica.dpu).value();
    if (kill_at_boundary && options_.kill_node == id) {
      sim::FaultPlan plan;
      plan.AtQuery(sim::FaultSite::kNodeKill, options_.kill_at_boundary);
      replica.injector = std::make_unique<sim::FaultInjector>(&replica.clock, plan);
      replica.service->SetFaultInjector(replica.injector.get());
    }
    replica.next_seq.assign(options_.workload.clients_per_node, 0);
    replicas.push_back(replica.endpoint);
  }
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    Replica& replica = node<Replica>(id);
    replica.client = std::make_unique<ReplicatedKvClient>(
        &engine(), replica.endpoint, replicas, options_.groups, options_.replicas_per_group);
  }
}

Bytes ReplicatedKvCluster::TaggedValue(uint64_t tag) const {
  Bytes value(options_.workload.value_bytes);
  for (size_t i = 8; i < value.size(); ++i) {
    value[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  Bytes prefix;
  PutU64(prefix, tag);
  std::copy(prefix.begin(), prefix.end(), value.begin());
  return value;
}

void ReplicatedKvCluster::IssueOp(const ClientOp& op) {
  Replica& issuer = node<Replica>(op.node);
  const uint32_t global_client = op.node * options_.workload.clients_per_node + op.client;
  const sim::Engine& shard = engine().shard(issuer.shard);
  if (op.write) {
    const uint64_t tag = (uint64_t{global_client + 1} << 32) | issuer.next_seq[op.client]++;
    issuer.client->PutAsync(
        op.key, TaggedValue(tag),
        [this, &issuer, &shard, op, tag, global_client](Status status, uint64_t position) {
          const bool ok = status.ok();
          issuer.history.push_back(RepHistOp{RepHistOp::kPut, global_client, op.key, tag,
                                             op.issued, shard.Now(), ok});
          if (ok) {
            issuer.acked.push_back(AckedPut{
                static_cast<uint32_t>(KvPartitionOf(op.key, options_.groups)), op.key,
                position, tag});
          }
          op.Done(ok);
        });
  } else {
    issuer.client->GetAsync(
        op.key, [&issuer, &shard, op, global_client](Status status, bool present,
                                                     uint64_t /*stamp*/, Bytes value) {
          const bool ok = status.ok();
          uint64_t tag = 0;
          if (ok && present && value.size() >= 8) {
            ByteReader reader(ByteSpan(value.data(), value.size()));
            tag = reader.ReadU64();
          }
          issuer.history.push_back(RepHistOp{RepHistOp::kGet, global_client, op.key, tag,
                                             op.issued, shard.Now(), ok});
          op.Done(ok);
        });
  }
}

RepClusterResult ReplicatedKvCluster::Run() {
  BeginRun();
  // Every key lands on every replica of its group with stamp 0 (below any
  // log position), directly — no virtual wire — so the measured phase runs
  // against a warm, already-replicated dataset.
  for (uint64_t key = 0; key < options_.workload.key_space; ++key) {
    const uint32_t group =
        static_cast<uint32_t>(KvPartitionOf(key, options_.groups));
    const Bytes value = TaggedValue(PreloadTag(key));
    for (uint32_t r = 0; r < options_.replicas_per_group; ++r) {
      CHECK_OK(replica(group, r).service->PreloadPut(key, ByteSpan(value.data(), value.size())));
    }
  }
  const sim::SimTime start = StartTime(num_nodes());
  if (options_.kill_after_ns > 0) {
    Replica& victim = node<Replica>(options_.kill_node);
    ReplicatedKvService* service = victim.service.get();
    engine().shard(victim.shard).ScheduleAt(start + options_.kill_after_ns,
                                            [service] { service->Kill(); });
  }
  RunClosedLoop(options_.workload, start, [this](const ClientOp& op) { IssueOp(op); });

  RepClusterResult result;
  result.events_run = engine().stats().events_run;
  result.messages = engine().stats().messages;
  result.start_ns = start;
  sim::Histogram latency;
  result.makespan_ns = FoldClosedLoop(start, &latency);
  FillLatency(latency, &result.latency_count, &result.latency_p50_ns, &result.latency_p99_ns,
              &result.latency_max_ns);
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    const ClientLoop& loop = client_loop(id);
    result.ok_puts += loop.ok_writes;
    result.ok_gets += loop.ok_reads;
    result.failed_ops += loop.failed;
    const Replica& replica = node<Replica>(id);
    const sim::Counters& counters = replica.client->counters();
    result.failovers += counters.Get("rep_failovers");
    result.seals += counters.Get("rep_seals");
    result.repair_copies += counters.Get("rep_repair_copies");
    result.repair_fills += counters.Get("rep_repair_fills");
    result.stale_epoch += counters.Get("rep_stale_epoch");
    result.retries += counters.Get("rep_retries");
    result.partial_abandons += counters.Get("rep_partial_abandons");
    if (replica.service->dead()) {
      ++result.killed_nodes;
    }
  }
  // Final group configs and state digests (replica state is a pure function
  // of the message history, so all of this is layout-invariant too).
  result.group_epochs.resize(options_.groups, 0);
  uint64_t digest = 0xcbf29ce484222325ull;
  for (uint32_t g = 0; g < options_.groups; ++g) {
    uint32_t max_epoch = 0;
    uint64_t final_dead = 0;
    for (uint32_t r = 0; r < options_.replicas_per_group; ++r) {
      const ReplicatedKvService& service = *replica(g, r).service;
      if (service.dead()) {
        continue;
      }
      if (service.epoch() >= max_epoch) {
        max_epoch = service.epoch();
        final_dead = service.dead_mask();
      }
    }
    result.group_epochs[g] = max_epoch;
    for (uint32_t r = 0; r < options_.replicas_per_group; ++r) {
      ReplicatedKvService& service = *replica(g, r).service;
      if (service.dead() || (final_dead & (1ull << r)) != 0) {
        digest = Fold(digest, 0xdeadull);
        continue;
      }
      digest = Fold(digest, service.StateDigest());
    }
  }
  result.state_digest = digest;
  uint64_t hist_digest = 0xcbf29ce484222325ull;
  for (const RepHistOp& op : History()) {
    hist_digest = Fold(hist_digest, op.kind);
    hist_digest = Fold(hist_digest, op.client);
    hist_digest = Fold(hist_digest, op.key);
    hist_digest = Fold(hist_digest, op.tag);
    hist_digest = Fold(hist_digest, op.invoke_ns);
    hist_digest = Fold(hist_digest, op.return_ns);
    hist_digest = Fold(hist_digest, op.ok ? 1 : 0);
  }
  result.history_digest = hist_digest;
  return result;
}

std::vector<RepHistOp> ReplicatedKvCluster::History() const {
  std::vector<RepHistOp> merged;
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    const std::vector<RepHistOp>& history = node<Replica>(id).history;
    merged.insert(merged.end(), history.begin(), history.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const RepHistOp& a, const RepHistOp& b) {
                     if (a.invoke_ns != b.invoke_ns) return a.invoke_ns < b.invoke_ns;
                     return a.client < b.client;
                   });
  return merged;
}

RepAudit ReplicatedKvCluster::AuditAckedWrites() {
  CHECK(ran());
  RepAudit audit;
  // Per group: the authoritative final config comes from the max-epoch
  // surviving replica; accused-but-alive replicas stopped receiving
  // repairs, so only un-accused survivors must agree.
  std::vector<uint64_t> final_dead(options_.groups, 0);
  for (uint32_t g = 0; g < options_.groups; ++g) {
    uint32_t max_epoch = 0;
    for (uint32_t r = 0; r < options_.replicas_per_group; ++r) {
      const ReplicatedKvService& service = *replica(g, r).service;
      if (service.dead()) {
        final_dead[g] |= 1ull << r;
        continue;
      }
      if (service.epoch() >= max_epoch) {
        max_epoch = service.epoch();
        final_dead[g] |= service.dead_mask();
      }
    }
    uint64_t first_digest = 0;
    bool have_digest = false;
    bool diverged = false;
    for (uint32_t r = 0; r < options_.replicas_per_group; ++r) {
      if ((final_dead[g] & (1ull << r)) != 0) {
        continue;
      }
      const uint64_t d = replica(g, r).service->StateDigest();
      if (!have_digest) {
        first_digest = d;
        have_digest = true;
      } else if (d != first_digest) {
        diverged = true;
      }
    }
    if (diverged) {
      ++audit.divergent;
    }
  }
  for (uint32_t id = 0; id < num_nodes(); ++id) {
    for (const AckedPut& acked : node<Replica>(id).acked) {
      ++audit.acked;
      for (uint32_t r = 0; r < options_.replicas_per_group; ++r) {
        if ((final_dead[acked.group] & (1ull << r)) != 0) {
          continue;
        }
        auto applied = replica(acked.group, r).service->ReadApplied(acked.key);
        if (!applied.ok() || applied->stamp < acked.position + 1) {
          ++audit.lost;
          continue;
        }
        if (applied->stamp == acked.position + 1) {
          bool match = applied->present && applied->value.size() >= 8;
          if (match) {
            ByteReader reader(ByteSpan(applied->value.data(), applied->value.size()));
            match = reader.ReadU64() == acked.tag;
          }
          if (!match) {
            ++audit.mismatched;
          }
        }
      }
    }
  }
  return audit;
}

uint64_t ReplicatedKvCluster::VictimBoundaries(uint32_t id) const {
  return node<Replica>(id).service->counters().Get("rep_boundaries");
}

}  // namespace hyperion::dpu
