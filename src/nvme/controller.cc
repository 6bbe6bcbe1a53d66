#include "src/nvme/controller.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::nvme {

uint32_t Controller::AddNamespace(uint64_t capacity_lbas, FlashLatency latency) {
  namespaces_.push_back(std::make_unique<FlashDevice>(capacity_lbas, latency));
  return static_cast<uint32_t>(namespaces_.size());
}

Result<uint64_t> Controller::NamespaceCapacity(uint32_t nsid) const {
  if (nsid == 0 || nsid > namespaces_.size()) {
    return InvalidArgument("bad nsid");
  }
  return namespaces_[nsid - 1]->capacity_lbas();
}

uint16_t Controller::CreateQueuePair(uint16_t entries) {
  queues_.push_back(std::make_unique<QueuePair>(static_cast<uint16_t>(queues_.size() + 1),
                                                entries));
  staged_.emplace_back();
  return static_cast<uint16_t>(queues_.size());
}

Status Controller::Submit(uint16_t qid, Command cmd) {
  if (qid == 0 || qid > queues_.size()) {
    return InvalidArgument("bad qid");
  }
  return queues_[qid - 1]->sq.Push(std::move(cmd));
}

FlashDevice* Controller::GetNamespace(uint32_t nsid) {
  if (nsid == 0 || nsid > namespaces_.size()) {
    return nullptr;
  }
  return namespaces_[nsid - 1].get();
}

Completion Controller::Execute(const Command& cmd) {
  Completion cqe;
  cqe.cid = cmd.cid;
  FlashDevice* ns = GetNamespace(cmd.nsid);
  if (ns == nullptr) {
    cqe.status = CmdStatus::kInvalidField;
    return cqe;
  }
  switch (cmd.opcode) {
    case Opcode::kRead: {
      const uint32_t blocks = cmd.BlockCount();
      // slba can arrive straight off the wire (BlockOp::kRead): no sum may wrap.
      if (cmd.slba > ns->capacity_lbas() || blocks > ns->capacity_lbas() - cmd.slba) {
        cqe.status = CmdStatus::kLbaOutOfRange;
        return cqe;
      }
      if (injector_ != nullptr && injector_->ShouldInject(sim::FaultSite::kNvmeCmdTimeout)) {
        // The command hangs at the device; the host-side watchdog expires
        // and posts an abort completion after the full timeout.
        obs::ScopedSpan timeout_span(tracer_, engine_, obs::Subsystem::kNvme, "nvme.timeout");
        engine_->Advance(command_timeout_);
        counters_.Add("nvme_cmd_timeouts", 1);
        cqe.status = CmdStatus::kAbortedByTimeout;
        return cqe;
      }
      const sim::Duration t = ns->ServiceTime(cmd.slba, blocks, /*is_write=*/false,
                                              engine_->Now());
      engine_->Advance(t);
      if (injector_ != nullptr && injector_->ShouldInject(sim::FaultSite::kNvmeReadError)) {
        // The media paid the access cost but ECC could not recover the page.
        counters_.Add("nvme_media_errors", 1);
        cqe.status = CmdStatus::kMediaError;
        return cqe;
      }
      cqe.data.resize(static_cast<size_t>(blocks) * kLbaSize);
      for (uint32_t i = 0; i < blocks; ++i) {
        CHECK_OK(ns->ReadBlock(cmd.slba + i,
                               MutableByteSpan(cqe.data.data() + static_cast<size_t>(i) * kLbaSize,
                                               kLbaSize)));
      }
      if (h_reads_ == kUnresolved) [[unlikely]] {
        h_reads_ = counters_.Intern("nvme_reads");
        h_read_bytes_ = counters_.Intern("nvme_read_bytes");
      }
      counters_.Increment(h_reads_);
      counters_.Add(h_read_bytes_, static_cast<uint64_t>(blocks) * kLbaSize);
      break;
    }
    case Opcode::kWrite: {
      const uint32_t blocks = cmd.BlockCount();
      // As for reads: slba can arrive off the wire (BlockOp::kWrite).
      if (cmd.slba > ns->capacity_lbas() || blocks > ns->capacity_lbas() - cmd.slba) {
        cqe.status = CmdStatus::kLbaOutOfRange;
        return cqe;
      }
      if (cmd.data.size() != static_cast<size_t>(blocks) * kLbaSize) {
        cqe.status = CmdStatus::kInvalidField;
        return cqe;
      }
      if (injector_ != nullptr && injector_->ShouldInject(sim::FaultSite::kNvmeCmdTimeout)) {
        obs::ScopedSpan timeout_span(tracer_, engine_, obs::Subsystem::kNvme, "nvme.timeout");
        engine_->Advance(command_timeout_);
        counters_.Add("nvme_cmd_timeouts", 1);
        cqe.status = CmdStatus::kAbortedByTimeout;
        return cqe;
      }
      const sim::Duration t = ns->ServiceTime(cmd.slba, blocks, /*is_write=*/true,
                                              engine_->Now());
      engine_->Advance(t);
      // Walk the SG chain block by block: a block inside one segment is
      // written straight from the caller's buffer; only a block straddling
      // segment boundaries assembles through scratch.
      ChainReader reader(cmd.data);
      if (write_scratch_.size() != kLbaSize) {
        write_scratch_.resize(kLbaSize);
      }
      for (uint32_t i = 0; i < blocks; ++i) {
        ByteSpan block = reader.Next(kLbaSize, MutableByteSpan(write_scratch_));
        CHECK(reader.ok());
        CHECK_OK(ns->WriteBlock(cmd.slba + i, block));
      }
      if (h_writes_ == kUnresolved) [[unlikely]] {
        h_writes_ = counters_.Intern("nvme_writes");
        h_write_bytes_ = counters_.Intern("nvme_write_bytes");
      }
      counters_.Increment(h_writes_);
      counters_.Add(h_write_bytes_, static_cast<uint64_t>(blocks) * kLbaSize);
      break;
    }
    case Opcode::kFlush:
      // Durable by construction in the model; charge a small controller cost.
      engine_->Advance(2 * sim::kMicrosecond);
      counters_.Add("nvme_flushes", 1);
      break;
    case Opcode::kIdentify: {
      Bytes payload;
      PutU32(payload, static_cast<uint32_t>(namespaces_.size()));
      for (const auto& n : namespaces_) {
        PutU64(payload, n->capacity_lbas());
      }
      cqe.data = std::move(payload);
      break;
    }
    default:
      cqe.status = CmdStatus::kInvalidOpcode;
      break;
  }
  return cqe;
}

uint32_t Controller::ProcessSubmissions() {
  uint32_t executed = 0;
  for (auto& qp : queues_) {
    while (!qp->sq.Empty()) {
      // A full CQ stalls the controller, exactly as in hardware: the SQE
      // stays queued (completions are never dropped) until the host reaps.
      // Checking before the Pop keeps the command in the SQ — popping first
      // and failing the Post would lose it.
      if (qp->cq.Full()) {
        counters_.Add("nvme_cq_stalls", 1);
        break;
      }
      auto cmd = qp->sq.Pop();
      Completion cqe = Execute(*cmd);
      cqe.sq_id = qp->sq.id();
      CHECK_OK(qp->cq.Post(std::move(cqe)));
      ++executed;
    }
  }
  return executed;
}

Status Controller::SubmitCoalesced(uint16_t qid, Command cmd) {
  if (qid == 0 || qid > queues_.size()) {
    return InvalidArgument("bad qid");
  }
  auto& staged = staged_[qid - 1];
  const uint16_t free = queues_[qid - 1]->sq.FreeSlots();
  if (staged.size() >= free) {
    return ResourceExhausted("submission queue full");
  }
  staged.push_back(std::move(cmd));
  // Ring when the batch bound is reached or the SQ has no room to stage
  // more; otherwise leave it to the caller's flush policy (max-delay timer
  // or explicit RingDoorbell).
  if (staged.size() >= doorbell_batch_ || staged.size() == free) {
    return RingDoorbell(qid);
  }
  return Status::Ok();
}

Status Controller::RingDoorbell(uint16_t qid) {
  if (qid == 0 || qid > queues_.size()) {
    return InvalidArgument("bad qid");
  }
  auto& staged = staged_[qid - 1];
  if (staged.empty()) {
    return Status::Ok();
  }
  // One MMIO doorbell write publishes the whole batch: the per-ring cost is
  // paid once, however many SQEs ride it.
  if (h_doorbells_ == kUnresolved) [[unlikely]] {
    h_doorbells_ = counters_.Intern("nvme_doorbells");
    h_doorbell_sqes_ = counters_.Intern("nvme_doorbell_sqes");
  }
  counters_.Increment(h_doorbells_);
  counters_.Add(h_doorbell_sqes_, staged.size());
  engine_->Advance(doorbell_cost_);
  auto& sq = queues_[qid - 1]->sq;
  size_t pushed = 0;
  for (; pushed < staged.size(); ++pushed) {
    Status status = sq.Push(std::move(staged[pushed]));
    if (!status.ok()) {
      staged.erase(staged.begin(), staged.begin() + static_cast<ptrdiff_t>(pushed));
      return status;
    }
  }
  staged.clear();
  return Status::Ok();
}

size_t Controller::StagedCount(uint16_t qid) const {
  if (qid == 0 || qid > staged_.size()) {
    return 0;
  }
  return staged_[qid - 1].size();
}

std::optional<Completion> Controller::Reap(uint16_t qid) {
  if (qid == 0 || qid > queues_.size()) {
    return std::nullopt;
  }
  return queues_[qid - 1]->cq.Reap();
}

Completion Controller::ExecuteWithRetry(Command cmd) {
  for (uint32_t attempt = 0;; ++attempt) {
    Completion cqe;
    if (attempt == 0) {
      cqe = Execute(cmd);
    } else {
      // Recovery span: one per reissue, covering the repeated media trip.
      obs::ScopedSpan retry(tracer_, engine_, obs::Subsystem::kNvme, "nvme.retry");
      cqe = Execute(cmd);
    }
    if (cqe.status == CmdStatus::kSuccess) {
      if (attempt > 0) {
        counters_.Add("nvme_retry_recoveries", 1);
      }
      return cqe;
    }
    if (!IsTransient(cqe.status) || attempt >= retry_limit_) {
      if (IsTransient(cqe.status)) {
        counters_.Add("nvme_retries_exhausted", 1);
      }
      return cqe;
    }
    // Reissue with a fresh command identifier, per the spec's abort flow.
    counters_.Add("nvme_retries", 1);
    cmd.cid = next_cid_++;
  }
}

Result<Bytes> Controller::Read(uint32_t nsid, uint64_t slba, uint32_t block_count) {
  if (block_count == 0) {
    return InvalidArgument("zero-length read");
  }
  obs::ScopedSpan span(tracer_, engine_, obs::Subsystem::kNvme, "nvme.read");
  Command cmd;
  cmd.cid = next_cid_++;
  cmd.opcode = Opcode::kRead;
  cmd.nsid = nsid;
  cmd.slba = slba;
  cmd.nlb = block_count - 1;
  Completion cqe = ExecuteWithRetry(std::move(cmd));
  if (cqe.status != CmdStatus::kSuccess) {
    if (IsTransient(cqe.status)) {
      return DataLoss("NVMe read failed after retries");
    }
    return OutOfRange("NVMe read failed");
  }
  return std::move(cqe.data);
}

Status Controller::Write(uint32_t nsid, uint64_t slba, ByteSpan data) {
  // The command only lives for this synchronous call, so it can reference
  // the caller's span directly instead of staging a copy.
  return WriteChain(nsid, slba, BufferChain(Buffer::Borrowed(data)));
}

Status Controller::WriteChain(uint32_t nsid, uint64_t slba, BufferChain data) {
  if (data.empty() || data.size() % kLbaSize != 0) {
    return InvalidArgument("write must be a whole number of LBAs");
  }
  obs::ScopedSpan span(tracer_, engine_, obs::Subsystem::kNvme, "nvme.write");
  Command cmd;
  cmd.cid = next_cid_++;
  cmd.opcode = Opcode::kWrite;
  cmd.nsid = nsid;
  cmd.slba = slba;
  cmd.nlb = static_cast<uint32_t>(data.size() / kLbaSize) - 1;
  cmd.data = std::move(data);
  Completion cqe = ExecuteWithRetry(std::move(cmd));
  if (cqe.status != CmdStatus::kSuccess) {
    if (IsTransient(cqe.status)) {
      return DataLoss("NVMe write failed after retries");
    }
    return OutOfRange("NVMe write failed");
  }
  return Status::Ok();
}

Status Controller::Flush(uint32_t nsid) {
  obs::ScopedSpan span(tracer_, engine_, obs::Subsystem::kNvme, "nvme.flush");
  Command cmd;
  cmd.cid = next_cid_++;
  cmd.opcode = Opcode::kFlush;
  cmd.nsid = nsid;
  Completion cqe = Execute(cmd);
  if (cqe.status != CmdStatus::kSuccess) {
    return Internal("NVMe flush failed");
  }
  return Status::Ok();
}

}  // namespace hyperion::nvme
