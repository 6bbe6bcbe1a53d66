#include "src/load/pipeline.h"

#include <utility>
#include <vector>

#include "src/common/check.h"

namespace hyperion::load {

namespace {
constexpr sim::Duration kDoorbellCost = 500;  // one MMIO doorbell write
constexpr uint16_t kSqEntries = 256;
constexpr uint64_t kDeviceLbas = 65536;
constexpr uint32_t kReadBlocks = 1;
}  // namespace

OverloadPipeline::OverloadPipeline(sim::Engine* engine, const OverloadPipelineOptions& options)
    : engine_(engine),
      controller_(&device_),
      read_sink_(kReadBlocks * nvme::kLbaSize),
      batcher_(engine, options.doorbell_batch, kDoorbellMaxDelay,
               [this](std::vector<PendingIo> batch, bool) { SubmitBatch(std::move(batch)); }) {
  CHECK(engine_ != nullptr);
  // The SQ keeps one slot empty to tell full from empty, so a batch below
  // kSqEntries always fits: every batch is reaped before the next one.
  CHECK_LT(options.doorbell_batch, kSqEntries);
  nsid_ = controller_.AddNamespace(kDeviceLbas);
  qid_ = controller_.CreateQueuePair(kSqEntries);
  controller_.SetDoorbellCoalescing(options.doorbell_batch);
  controller_.SetDoorbellCost(kDoorbellCost);
}

void OverloadPipeline::Offer(uint64_t seq, LoadGen::DoneFn done) {
  batcher_.Add(PendingIo{seq, std::move(done)});
}

void OverloadPipeline::SubmitBatch(std::vector<PendingIo> batch) {
  const sim::SimTime now = engine_->Now();
  // Idle catch-up: the device clock trails event time while the pipeline
  // sits empty; work never starts in the past.
  if (device_.Now() < now) {
    device_.AdvanceTo(now);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    nvme::Command cmd;
    cmd.cid = static_cast<uint16_t>(i);  // index into `batch`
    cmd.opcode = nvme::Opcode::kRead;
    cmd.nsid = nsid_;
    cmd.slba = (batch[i].seq * 97) % (kDeviceLbas - kReadBlocks);
    cmd.nlb = kReadBlocks - 1;
    cmd.dest = MutableByteSpan(read_sink_);
    CHECK_OK(controller_.SubmitCoalesced(qid_, std::move(cmd)));
  }
  // Publish any staged remainder (one doorbell for the whole batch), run
  // the device, and reap with one coalesced completion interrupt.
  CHECK_OK(controller_.RingDoorbell(qid_));
  controller_.ProcessSubmissions();
  const sim::SimTime finish = device_.Now();
  while (auto cqe = controller_.Reap(qid_)) {
    CHECK_LT(cqe->cid, batch.size());
    const bool ok = cqe->status == nvme::CmdStatus::kSuccess;
    engine_->ScheduleAt(finish, [ok, done = std::move(batch[cqe->cid].done)] {
      done(ok ? Outcome::kOk : Outcome::kFailed);
    });
  }
}

}  // namespace hyperion::load
