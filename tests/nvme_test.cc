// Unit tests for the NVMe substrate: flash media, queue pairs, controller
// command execution, and the latency model's channel parallelism.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "src/common/rng.h"
#include "src/nvme/controller.h"
#include "src/nvme/flash.h"
#include "src/nvme/queue.h"
#include "src/nvme/zns.h"
#include "src/sim/engine.h"

namespace hyperion::nvme {
namespace {

Bytes Pattern(size_t n, uint8_t seed) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(seed + i);
  }
  return b;
}

// `prefix` followed by zeroes to one LBA, as a short log entry is written.
Bytes Padded(const Bytes& prefix) {
  Bytes block(kLbaSize, 0);
  std::copy(prefix.begin(), prefix.end(), block.begin());
  return block;
}

// -- FlashDevice -----------------------------------------------------------

TEST(FlashTest, UnwrittenBlocksReadZero) {
  FlashDevice dev(16);
  Bytes out(kLbaSize, 0xff);
  ASSERT_TRUE(dev.ReadBlock(3, MutableByteSpan(out)).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(FlashTest, WriteReadRoundTrip) {
  FlashDevice dev(16);
  Bytes data = Pattern(kLbaSize, 7);
  ASSERT_NE(data.back(), 0);  // no zero tail: the whole block is stored
  Bytes last_byte_only(kLbaSize, 0);
  last_byte_only.back() = 0x5a;
  Bytes first_byte_only(kLbaSize, 0);
  first_byte_only.front() = 0xa5;
  // Ends mid-stride, with zero bytes inside the stored prefix.
  const Bytes mid_stride = Padded(Pattern(279, 0));
  const Bytes* blocks[] = {&data, &last_byte_only, &first_byte_only, &mid_stride};
  for (uint64_t lba = 0; lba < std::size(blocks); ++lba) {
    const Bytes& block = *blocks[lba];
    ASSERT_TRUE(dev.WriteBlock(lba, ByteSpan(block.data(), block.size())).ok());
    Bytes out(kLbaSize, 0xff);
    ASSERT_TRUE(dev.ReadBlock(lba, MutableByteSpan(out)).ok());
    EXPECT_EQ(out, block) << "lba " << lba;
  }
}

TEST(FlashTest, ShortWriteStoresOnlyItsPrefix) {
  FlashDevice dev(16);
  const Bytes block = Padded(Pattern(300, 1));
  ASSERT_TRUE(dev.WriteBlock(2, ByteSpan(block.data(), block.size())).ok());
  EXPECT_LE(dev.StoredBytes(), 300u);
  Bytes out(kLbaSize, 0xff);
  ASSERT_TRUE(dev.ReadBlock(2, MutableByteSpan(out)).ok());
  EXPECT_EQ(out, block);
}

TEST(FlashTest, ShortOverwriteReadsZerosPastIt) {
  FlashDevice dev(16);
  const Bytes full = Pattern(kLbaSize, 3);
  ASSERT_TRUE(dev.WriteBlock(6, ByteSpan(full.data(), full.size())).ok());
  const Bytes short_block = Padded(Pattern(100, 9));
  ASSERT_TRUE(dev.WriteBlock(6, ByteSpan(short_block.data(), short_block.size())).ok());
  Bytes out(kLbaSize, 0xff);
  ASSERT_TRUE(dev.ReadBlock(6, MutableByteSpan(out)).ok());
  EXPECT_EQ(out, short_block);
  EXPECT_LE(dev.StoredBytes(), 100u);
  EXPECT_EQ(dev.WrittenBlocks(), 1u);
}

TEST(FlashTest, AllZeroWriteReadsZeroAndCountsAsWritten) {
  FlashDevice dev(16);
  const Bytes zeros(kLbaSize, 0);
  ASSERT_TRUE(dev.WriteBlock(1, ByteSpan(zeros.data(), zeros.size())).ok());
  // Zeroing a block that held data must erase it too.
  const Bytes full = Pattern(kLbaSize, 5);
  ASSERT_TRUE(dev.WriteBlock(9, ByteSpan(full.data(), full.size())).ok());
  ASSERT_TRUE(dev.WriteBlock(9, ByteSpan(zeros.data(), zeros.size())).ok());
  EXPECT_EQ(dev.WrittenBlocks(), 2u);
  EXPECT_EQ(dev.StoredBytes(), 0u);
  for (uint64_t lba : {1u, 9u}) {
    Bytes out(kLbaSize, 0xff);
    ASSERT_TRUE(dev.ReadBlock(lba, MutableByteSpan(out)).ok());
    EXPECT_EQ(out, zeros) << "lba " << lba;
  }
}

TEST(FlashTest, OutOfRangeRejected) {
  FlashDevice dev(4);
  Bytes buf(kLbaSize);
  EXPECT_FALSE(dev.ReadBlock(4, MutableByteSpan(buf)).ok());
  EXPECT_FALSE(dev.WriteBlock(100, ByteSpan(buf.data(), buf.size())).ok());
}

TEST(FlashTest, WrongBufferSizeRejected) {
  FlashDevice dev(4);
  Bytes small(100);
  EXPECT_FALSE(dev.WriteBlock(0, ByteSpan(small.data(), small.size())).ok());
}

TEST(FlashTest, ReadSlowerThanWrite) {
  // TLC read latency dominates SLC-cache program latency in the model.
  FlashDevice dev(1024);
  const auto read = dev.ServiceTime(0, 1, /*is_write=*/false, 0);
  FlashDevice dev2(1024);
  const auto write = dev2.ServiceTime(0, 1, /*is_write=*/true, 0);
  EXPECT_GT(read, write);
}

TEST(FlashTest, ChannelParallelismOverlapsBlocks) {
  FlashLatency lat;
  lat.channels = 8;
  FlashDevice dev(1024, lat);
  // 8 consecutive LBAs hit 8 distinct channels: service time should be far
  // less than 8 serial reads.
  const auto batched = dev.ServiceTime(0, 8, false, 0);
  FlashDevice serial_dev(1024, FlashLatency{.channels = 1});
  const auto serial = serial_dev.ServiceTime(0, 8, false, 0);
  EXPECT_LT(batched * 4, serial);
}

TEST(FlashTest, ChannelContentionSerializes) {
  FlashLatency lat;
  lat.channels = 8;
  FlashDevice dev(1024, lat);
  const auto first = dev.ServiceTime(0, 1, false, 0);
  // Same channel (lba 8 maps to channel 0 again) while still busy.
  const auto second = dev.ServiceTime(8, 1, false, 0);
  EXPECT_GE(second, first + lat.read_ns);
}

// -- Queues -----------------------------------------------------------------

TEST(QueueTest, FifoOrder) {
  SubmissionQueue sq(1, 8);
  for (uint16_t i = 0; i < 5; ++i) {
    Command cmd;
    cmd.cid = i;
    ASSERT_TRUE(sq.Push(std::move(cmd)).ok());
  }
  for (uint16_t i = 0; i < 5; ++i) {
    auto cmd = sq.Pop();
    ASSERT_TRUE(cmd.has_value());
    EXPECT_EQ(cmd->cid, i);
  }
  EXPECT_FALSE(sq.Pop().has_value());
}

TEST(QueueTest, FullQueueRejectsPush) {
  SubmissionQueue sq(1, 4);  // capacity entries-1 = 3
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sq.Push(Command{}).ok());
  }
  EXPECT_TRUE(sq.Full());
  EXPECT_EQ(sq.Push(Command{}).code(), StatusCode::kResourceExhausted);
}

TEST(QueueTest, WrapAround) {
  SubmissionQueue sq(1, 4);
  for (int round = 0; round < 10; ++round) {
    Command cmd;
    cmd.cid = static_cast<uint16_t>(round);
    ASSERT_TRUE(sq.Push(std::move(cmd)).ok());
    auto popped = sq.Pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->cid, round);
  }
}

TEST(QueueTest, CompletionQueueWrapAroundAtBoundary) {
  // Cross the entries_ boundary repeatedly: head/tail arithmetic must stay
  // consistent through many wraps, with no completion lost or reordered.
  CompletionQueue cq(4);  // capacity entries-1 = 3
  uint16_t next_post = 0;
  uint16_t next_reap = 0;
  for (int round = 0; round < 16; ++round) {
    while (!cq.Full()) {
      Completion cqe;
      cqe.cid = next_post++;
      ASSERT_TRUE(cq.Post(std::move(cqe)).ok());
    }
    EXPECT_EQ(cq.Depth(), cq.Capacity());
    EXPECT_EQ(cq.Post(Completion{}).code(), StatusCode::kResourceExhausted);
    // Drain partially so the pointers walk the ring at varying offsets.
    const int reaps = (round % 3) + 1;
    for (int i = 0; i < reaps; ++i) {
      auto cqe = cq.Reap();
      ASSERT_TRUE(cqe.has_value());
      EXPECT_EQ(cqe->cid, next_reap++);
    }
  }
  while (auto cqe = cq.Reap()) {
    EXPECT_EQ(cqe->cid, next_reap++);
  }
  EXPECT_EQ(next_reap, next_post);
  EXPECT_TRUE(cq.Empty());
}

TEST(QueueTest, MinimumDepthQueues) {
  // entries=2 is the smallest legal ring: one usable slot. The full/empty
  // distinction must survive at this degenerate size.
  SubmissionQueue sq(1, 2);
  EXPECT_EQ(sq.Capacity(), 1u);
  ASSERT_TRUE(sq.Push(Command{}).ok());
  EXPECT_TRUE(sq.Full());
  EXPECT_EQ(sq.Push(Command{}).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(sq.Pop().has_value());
  EXPECT_TRUE(sq.Empty());
  ASSERT_TRUE(sq.Push(Command{}).ok());

  CompletionQueue cq(2);
  EXPECT_EQ(cq.Capacity(), 1u);
  for (int round = 0; round < 5; ++round) {
    Completion cqe;
    cqe.cid = static_cast<uint16_t>(round);
    ASSERT_TRUE(cq.Post(std::move(cqe)).ok());
    EXPECT_TRUE(cq.Full());
    EXPECT_EQ(cq.Post(Completion{}).code(), StatusCode::kResourceExhausted);
    auto reaped = cq.Reap();
    ASSERT_TRUE(reaped.has_value());
    EXPECT_EQ(reaped->cid, round);
  }
}

TEST(QueueTest, CompletionQueueRoundTrip) {
  CompletionQueue cq(8);
  Completion cqe;
  cqe.cid = 42;
  ASSERT_TRUE(cq.Post(std::move(cqe)).ok());
  auto reaped = cq.Reap();
  ASSERT_TRUE(reaped.has_value());
  EXPECT_EQ(reaped->cid, 42);
  EXPECT_FALSE(cq.Reap().has_value());
}

// -- Controller --------------------------------------------------------------

class ControllerTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  Controller ctrl_{&engine_};
};

TEST_F(ControllerTest, SyncWriteReadRoundTrip) {
  const uint32_t ns = ctrl_.AddNamespace(1024);
  Bytes data = Pattern(2 * kLbaSize, 3);
  ASSERT_TRUE(ctrl_.Write(ns, 10, ByteSpan(data.data(), data.size())).ok());
  auto read = ctrl_.Read(ns, 10, 2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(ControllerTest, TimeAdvancesOnIo) {
  const uint32_t ns = ctrl_.AddNamespace(1024);
  const auto before = engine_.Now();
  ASSERT_TRUE(ctrl_.Read(ns, 0, 1).ok());
  EXPECT_GT(engine_.Now(), before);
}

TEST_F(ControllerTest, OutOfRangeRead) {
  const uint32_t ns = ctrl_.AddNamespace(8);
  EXPECT_FALSE(ctrl_.Read(ns, 7, 2).ok());
}

// slba can arrive straight off the wire (BlockOp): a range whose
// slba + blocks wraps past 2^64 must fail the bounds check, not reach the
// media.
TEST_F(ControllerTest, WrappedSlbaReadRejected) {
  const uint32_t ns = ctrl_.AddNamespace(8);
  EXPECT_EQ(ctrl_.Read(ns, UINT64_MAX - 3, 8).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ctrl_.Read(ns, UINT64_MAX, 1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ctrl_.Read(ns, 8, 1).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(ctrl_.Read(ns, 0, 8).ok());  // the whole namespace still reads
}

TEST_F(ControllerTest, WrappedSlbaWriteRejected) {
  const uint32_t ns = ctrl_.AddNamespace(8);
  Bytes data = Pattern(8 * kLbaSize, 9);
  EXPECT_EQ(ctrl_.Write(ns, UINT64_MAX - 3, ByteSpan(data.data(), data.size())).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ctrl_.Write(ns, UINT64_MAX, ByteSpan(data.data(), kLbaSize)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(*ctrl_.Read(ns, 0, 8), Bytes(8 * kLbaSize, 0));  // nothing landed
  EXPECT_TRUE(ctrl_.Write(ns, 0, ByteSpan(data.data(), data.size())).ok());
}

TEST_F(ControllerTest, MisalignedWriteRejected) {
  const uint32_t ns = ctrl_.AddNamespace(8);
  Bytes partial(100);
  EXPECT_EQ(ctrl_.Write(ns, 0, ByteSpan(partial.data(), partial.size())).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ControllerTest, QueuePairFlow) {
  const uint32_t ns = ctrl_.AddNamespace(64);
  const uint16_t qid = ctrl_.CreateQueuePair(16);
  Bytes data = Pattern(kLbaSize, 9);

  Command write;
  write.cid = 1;
  write.opcode = Opcode::kWrite;
  write.nsid = ns;
  write.slba = 4;
  write.nlb = 0;
  write.data = data;
  ASSERT_TRUE(ctrl_.Submit(qid, std::move(write)).ok());

  Command read;
  read.cid = 2;
  read.opcode = Opcode::kRead;
  read.nsid = ns;
  read.slba = 4;
  read.nlb = 0;
  ASSERT_TRUE(ctrl_.Submit(qid, std::move(read)).ok());

  EXPECT_EQ(ctrl_.ProcessSubmissions(), 2u);

  auto c1 = ctrl_.Reap(qid);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->cid, 1);
  EXPECT_EQ(c1->status, CmdStatus::kSuccess);
  auto c2 = ctrl_.Reap(qid);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->cid, 2);
  EXPECT_EQ(c2->data, data);
  EXPECT_FALSE(ctrl_.Reap(qid).has_value());
}

TEST_F(ControllerTest, InvalidOpcodeCompletesWithError) {
  ctrl_.AddNamespace(8);
  const uint16_t qid = ctrl_.CreateQueuePair(8);
  Command bogus;
  bogus.opcode = static_cast<Opcode>(0x7f);
  bogus.nsid = 1;
  ASSERT_TRUE(ctrl_.Submit(qid, std::move(bogus)).ok());
  ctrl_.ProcessSubmissions();
  auto cqe = ctrl_.Reap(qid);
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CmdStatus::kInvalidOpcode);
}

TEST_F(ControllerTest, IdentifyReportsNamespaces) {
  ctrl_.AddNamespace(100);
  ctrl_.AddNamespace(200);
  const uint16_t qid = ctrl_.CreateQueuePair(8);
  Command identify;
  identify.opcode = Opcode::kIdentify;
  identify.nsid = 1;
  ASSERT_TRUE(ctrl_.Submit(qid, std::move(identify)).ok());
  ctrl_.ProcessSubmissions();
  auto cqe = ctrl_.Reap(qid);
  ASSERT_TRUE(cqe.has_value());
  ASSERT_GE(cqe->data.size(), 20u);
  EXPECT_EQ(GetU32(cqe->data, 0), 2u);
  EXPECT_EQ(GetU64(cqe->data, 4), 100u);
  EXPECT_EQ(GetU64(cqe->data, 12), 200u);
}

TEST_F(ControllerTest, CountersTrackIo) {
  const uint32_t ns = ctrl_.AddNamespace(64);
  Bytes data(kLbaSize, 1);
  ASSERT_TRUE(ctrl_.Write(ns, 0, ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(ctrl_.Read(ns, 0, 1).ok());
  ASSERT_TRUE(ctrl_.Flush(ns).ok());
  EXPECT_EQ(ctrl_.counters().Get("nvme_writes"), 1u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_reads"), 1u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_flushes"), 1u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_read_bytes"), static_cast<uint64_t>(kLbaSize));
}

TEST_F(ControllerTest, FullCompletionQueueStallsInsteadOfLosingCompletions) {
  // Regression: a full CQ used to crash ProcessSubmissions (the CHECK_OK on
  // Post fired). The controller must instead stall — leave the command in
  // the SQ, count the stall, and resume once the host reaps.
  const uint32_t ns = ctrl_.AddNamespace(64);
  const uint16_t qid = ctrl_.CreateQueuePair(4);  // SQ and CQ capacity 3
  auto submit_read = [&](uint16_t cid) {
    Command read;
    read.cid = cid;
    read.opcode = Opcode::kRead;
    read.nsid = ns;
    read.slba = cid % 32;
    read.nlb = 0;
    ASSERT_TRUE(ctrl_.Submit(qid, std::move(read)).ok());
  };
  for (uint16_t cid = 0; cid < 3; ++cid) {
    submit_read(cid);
  }
  EXPECT_EQ(ctrl_.ProcessSubmissions(), 3u);  // CQ now full, unreaped
  for (uint16_t cid = 3; cid < 6; ++cid) {
    submit_read(cid);
  }
  // No CQ space: nothing executes, nothing is lost, the stall is counted.
  EXPECT_EQ(ctrl_.ProcessSubmissions(), 0u);
  EXPECT_GE(ctrl_.counters().Get("nvme_cq_stalls"), 1u);
  // Reap one slot; exactly one stalled command can now complete.
  ASSERT_TRUE(ctrl_.Reap(qid).has_value());
  EXPECT_EQ(ctrl_.ProcessSubmissions(), 1u);
  // Drain fully: every cid arrives exactly once, in submission order.
  uint16_t expected = 1;
  for (int spins = 0; expected < 6 && spins < 8; ++spins) {
    while (auto cqe = ctrl_.Reap(qid)) {
      EXPECT_EQ(cqe->cid, expected++);
      EXPECT_EQ(cqe->status, CmdStatus::kSuccess);
    }
    ctrl_.ProcessSubmissions();
  }
  EXPECT_EQ(expected, 6);
  EXPECT_FALSE(ctrl_.Reap(qid).has_value());
}

TEST_F(ControllerTest, DoorbellCoalescingStagesUntilBatchBound) {
  const uint32_t ns = ctrl_.AddNamespace(64);
  const uint16_t qid = ctrl_.CreateQueuePair(16);
  ctrl_.SetDoorbellCoalescing(4);
  ctrl_.SetDoorbellCost(500);
  auto read_cmd = [&](uint16_t cid) {
    Command read;
    read.cid = cid;
    read.opcode = Opcode::kRead;
    read.nsid = ns;
    read.slba = cid;
    read.nlb = 0;
    return read;
  };
  const auto before = engine_.Now();
  for (uint16_t cid = 0; cid < 3; ++cid) {
    ASSERT_TRUE(ctrl_.SubmitCoalesced(qid, read_cmd(cid)).ok());
  }
  // Staged, not published: no doorbell MMIO, no time, nothing to execute.
  EXPECT_EQ(ctrl_.StagedCount(qid), 3u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_doorbells"), 0u);
  EXPECT_EQ(engine_.Now(), before);
  EXPECT_EQ(ctrl_.ProcessSubmissions(), 0u);
  // The K-th SQE rings: one doorbell write (one cost) publishes all four.
  ASSERT_TRUE(ctrl_.SubmitCoalesced(qid, read_cmd(3)).ok());
  EXPECT_EQ(ctrl_.StagedCount(qid), 0u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_doorbells"), 1u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_doorbell_sqes"), 4u);
  EXPECT_EQ(engine_.Now(), before + 500u);
  EXPECT_EQ(ctrl_.ProcessSubmissions(), 4u);
  // A partial batch stays staged until the caller rings explicitly (the
  // max-delay timer path in the pipeline).
  ASSERT_TRUE(ctrl_.SubmitCoalesced(qid, read_cmd(4)).ok());
  ASSERT_TRUE(ctrl_.SubmitCoalesced(qid, read_cmd(5)).ok());
  EXPECT_EQ(ctrl_.StagedCount(qid), 2u);
  ASSERT_TRUE(ctrl_.RingDoorbell(qid).ok());
  EXPECT_EQ(ctrl_.counters().Get("nvme_doorbells"), 2u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_doorbell_sqes"), 6u);
  EXPECT_EQ(ctrl_.ProcessSubmissions(), 2u);
  // Ringing with nothing staged is free.
  ASSERT_TRUE(ctrl_.RingDoorbell(qid).ok());
  EXPECT_EQ(ctrl_.counters().Get("nvme_doorbells"), 2u);
}

TEST_F(ControllerTest, CoalescedSubmitRespectsQueueCapacity) {
  ctrl_.AddNamespace(64);
  const uint16_t qid = ctrl_.CreateQueuePair(4);  // capacity 3
  ctrl_.SetDoorbellCoalescing(8);                 // bound > capacity
  auto read_cmd = [&](uint16_t cid) {
    Command read;
    read.cid = cid;
    read.opcode = Opcode::kRead;
    read.nsid = 1;
    read.slba = cid;
    read.nlb = 0;
    return read;
  };
  // Staging is bounded by SQ free slots: the third SQE fills the queue and
  // auto-rings rather than staging past what one doorbell can publish.
  ASSERT_TRUE(ctrl_.SubmitCoalesced(qid, read_cmd(0)).ok());
  ASSERT_TRUE(ctrl_.SubmitCoalesced(qid, read_cmd(1)).ok());
  ASSERT_TRUE(ctrl_.SubmitCoalesced(qid, read_cmd(2)).ok());
  EXPECT_EQ(ctrl_.StagedCount(qid), 0u);
  EXPECT_EQ(ctrl_.counters().Get("nvme_doorbells"), 1u);
  // SQ full: further coalesced submits are backpressure, not silent loss.
  EXPECT_EQ(ctrl_.SubmitCoalesced(qid, read_cmd(3)).code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace hyperion::nvme

namespace zns_tests {

using hyperion::nvme::Controller;
using hyperion::nvme::ZoneState;
using hyperion::nvme::ZonedNamespace;
using hyperion::nvme::kLbaSize;
using hyperion::Bytes;
using hyperion::ByteSpan;
using hyperion::StatusCode;

class ZnsTest : public ::testing::Test {
 protected:
  ZnsTest() : ctrl_(&engine_) {
    nsid_ = ctrl_.AddNamespace(256);  // 1 MiB, zones of 16 LBAs
    auto zns = ZonedNamespace::Create(&ctrl_, nsid_, 16);
    CHECK_OK(zns.status());
    zns_ = std::make_unique<ZonedNamespace>(std::move(*zns));
  }

  Bytes Blocks(uint32_t n, uint8_t seed) {
    Bytes b(n * kLbaSize);
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<uint8_t>(seed + i);
    }
    return b;
  }

  hyperion::sim::Engine engine_;
  Controller ctrl_;
  uint32_t nsid_ = 0;
  std::unique_ptr<ZonedNamespace> zns_;
};

TEST_F(ZnsTest, GeometryFromNamespace) {
  EXPECT_EQ(zns_->ZoneCount(), 16u);
  auto zone = zns_->Describe(3);
  ASSERT_TRUE(zone.ok());
  EXPECT_EQ(zone->start_lba, 48u);
  EXPECT_EQ(zone->state, ZoneState::kEmpty);
}

TEST_F(ZnsTest, SequentialWriteAdvancesWritePointer) {
  Bytes data = Blocks(2, 1);
  ASSERT_TRUE(zns_->Write(0, 0, ByteSpan(data.data(), data.size())).ok());
  auto zone = zns_->Describe(0);
  EXPECT_EQ(zone->write_pointer, 2u);
  EXPECT_EQ(zone->state, ZoneState::kOpen);
  auto read = zns_->Read(0, 0, 2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(ZnsTest, NonSequentialWriteRejected) {
  Bytes data = Blocks(1, 2);
  // Writing at LBA 5 of an empty zone violates the write pointer.
  EXPECT_EQ(zns_->Write(0, 5, ByteSpan(data.data(), data.size())).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ZnsTest, ZoneFillsAndRejectsFurtherWrites) {
  Bytes data = Blocks(16, 3);
  ASSERT_TRUE(zns_->Write(1, 16, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(zns_->Describe(1)->state, ZoneState::kFull);
  Bytes more = Blocks(1, 4);
  EXPECT_EQ(zns_->Write(1, 32, ByteSpan(more.data(), more.size())).code(),
            StatusCode::kResourceExhausted);  // the zone is FULL
}

TEST_F(ZnsTest, AppendReturnsAssignedLba) {
  Bytes a = Blocks(1, 5);
  Bytes b = Blocks(1, 6);
  auto lba_a = zns_->Append(2, ByteSpan(a.data(), a.size()));
  auto lba_b = zns_->Append(2, ByteSpan(b.data(), b.size()));
  ASSERT_TRUE(lba_a.ok());
  ASSERT_TRUE(lba_b.ok());
  EXPECT_EQ(*lba_a, 32u);
  EXPECT_EQ(*lba_b, 33u);
  EXPECT_EQ(*zns_->Read(2, *lba_b, 1), b);
}

TEST_F(ZnsTest, ReadBeyondWritePointerRejected) {
  Bytes data = Blocks(1, 7);
  ASSERT_TRUE(zns_->Append(0, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(zns_->Read(0, 1, 1).status().code(), StatusCode::kOutOfRange);
}

TEST_F(ZnsTest, WrappedSlbaReadRejected) {
  // slba comes from SSTable extents on media: a corrupt one whose
  // slba + count wraps to inside the written extent must still be refused.
  Bytes data = Blocks(4, 9);
  ASSERT_TRUE(zns_->Append(0, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(zns_->Read(0, UINT64_MAX - 3, 8).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(zns_->Read(0, UINT64_MAX, 1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(*zns_->Read(0, 0, 4), data);
}

TEST_F(ZnsTest, ResetReturnsZoneToEmpty) {
  Bytes data = Blocks(4, 8);
  ASSERT_TRUE(zns_->Write(0, 0, ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(zns_->Reset(0).ok());
  auto zone = zns_->Describe(0);
  EXPECT_EQ(zone->state, ZoneState::kEmpty);
  EXPECT_EQ(zone->write_pointer, 0u);
  // Writable from the start again.
  EXPECT_TRUE(zns_->Write(0, 0, ByteSpan(data.data(), data.size())).ok());
}

TEST_F(ZnsTest, FinishForcesFull) {
  ASSERT_TRUE(zns_->Finish(5).ok());
  EXPECT_EQ(zns_->Describe(5)->state, ZoneState::kFull);
  Bytes data = Blocks(1, 9);
  EXPECT_EQ(zns_->Write(5, 80, ByteSpan(data.data(), data.size())).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ZnsTest, ZoneSizeMustDivideIntoNamespace) {
  EXPECT_FALSE(ZonedNamespace::Create(&ctrl_, nsid_, 0).ok());
  EXPECT_FALSE(ZonedNamespace::Create(&ctrl_, nsid_, 10000).ok());
}

TEST_F(ZnsTest, OversizedAppendRejectedWithoutMovingWritePointer) {
  // 14 of 16 blocks written: a 4-block append cannot fit and must fail whole,
  // leaving the write pointer where it was — no partial append.
  Bytes fill = Blocks(14, 10);
  ASSERT_TRUE(zns_->Append(0, ByteSpan(fill.data(), fill.size())).ok());
  Bytes big = Blocks(4, 11);
  auto rejected = zns_->Append(0, ByteSpan(big.data(), big.size()));
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(zns_->Describe(0)->write_pointer, 14u);
  EXPECT_EQ(zns_->Describe(0)->state, ZoneState::kOpen);
  // A fitting append still lands, and the exact fill flips the zone to FULL.
  Bytes fit = Blocks(2, 12);
  auto lba = zns_->Append(0, ByteSpan(fit.data(), fit.size()));
  ASSERT_TRUE(lba.ok());
  EXPECT_EQ(*lba, 14u);
  EXPECT_EQ(zns_->Describe(0)->state, ZoneState::kFull);
  Bytes one = Blocks(1, 13);
  EXPECT_EQ(zns_->Append(0, ByteSpan(one.data(), one.size())).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ZnsTest, TrailingPartialZoneIsNotAddressable) {
  // 250 LBAs with 16-LBA zones: 15 whole zones; the trailing 10 LBAs belong
  // to no zone and must be invisible to the zoned interface.
  const uint32_t nsid = ctrl_.AddNamespace(250);
  auto created = ZonedNamespace::Create(&ctrl_, nsid, 16);
  ASSERT_TRUE(created.ok());
  ZonedNamespace zns = std::move(*created);
  EXPECT_EQ(zns.ZoneCount(), 15u);
  EXPECT_EQ(zns.AddressableLbas(), 240u);
  EXPECT_EQ(zns.Describe(15).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(zns.Remaining(15).status().code(), StatusCode::kInvalidArgument);
  // The last whole zone fills to exactly its boundary; nothing spills into
  // the partial tail.
  Bytes fill = Blocks(16, 20);
  ASSERT_TRUE(zns.Append(14, ByteSpan(fill.data(), fill.size())).ok());
  EXPECT_EQ(zns.Describe(14)->state, ZoneState::kFull);
  EXPECT_EQ(zns.Describe(14)->write_pointer, 240u);
  Bytes one = Blocks(1, 21);
  EXPECT_EQ(zns.Append(14, ByteSpan(one.data(), one.size())).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ZnsTest, ResetWhileOpenDiscardsWrittenExtent) {
  Bytes data = Blocks(5, 30);
  ASSERT_TRUE(zns_->Append(3, ByteSpan(data.data(), data.size())).ok());
  ASSERT_EQ(zns_->Describe(3)->state, ZoneState::kOpen);
  ASSERT_TRUE(zns_->Reset(3).ok());
  EXPECT_EQ(zns_->Describe(3)->state, ZoneState::kEmpty);
  EXPECT_EQ(zns_->Describe(3)->write_pointer, 48u);
  // The old extent is gone from the zoned view: reads past the (rewound)
  // write pointer are rejected even though the media still holds the bytes.
  EXPECT_EQ(zns_->Read(3, 48, 1).status().code(), StatusCode::kOutOfRange);
  // The next append restarts at the zone's first LBA.
  Bytes fresh = Blocks(1, 31);
  auto lba = zns_->Append(3, ByteSpan(fresh.data(), fresh.size()));
  ASSERT_TRUE(lba.ok());
  EXPECT_EQ(*lba, 48u);
  EXPECT_EQ(*zns_->Read(3, 48, 1), fresh);
}

TEST_F(ZnsTest, WritePointerInvariantsAcrossMixedAppends) {
  // Throughout any append sequence: wp - start + Remaining == capacity, the
  // write pointer never regresses, and state tracks the fill level exactly.
  hyperion::Rng rng(0x5EED);
  uint64_t last_wp = zns_->Describe(7)->start_lba;
  while (true) {
    auto zone = zns_->Describe(7);
    ASSERT_TRUE(zone.ok());
    auto remaining = zns_->Remaining(7);
    ASSERT_TRUE(remaining.ok());
    EXPECT_EQ(zone->write_pointer - zone->start_lba + *remaining, zone->capacity_lbas);
    EXPECT_GE(zone->write_pointer, last_wp);
    if (*remaining == 0) {
      EXPECT_EQ(zone->state, ZoneState::kFull);
      break;
    }
    EXPECT_EQ(zone->state, zone->write_pointer == zone->start_lba ? ZoneState::kEmpty
                                                                  : ZoneState::kOpen);
    last_wp = zone->write_pointer;
    const uint32_t blocks =
        static_cast<uint32_t>(rng.UniformRange(1, std::min<uint64_t>(*remaining, 3)));
    Bytes data = Blocks(blocks, static_cast<uint8_t>(last_wp));
    auto lba = zns_->Append(7, ByteSpan(data.data(), data.size()));
    ASSERT_TRUE(lba.ok());
    EXPECT_EQ(*lba, last_wp);  // append lands exactly at the old write pointer
  }
  EXPECT_EQ(zns_->Remaining(7).value(), 0u);
}

}  // namespace zns_tests
