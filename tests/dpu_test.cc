// Tests for the Hyperion DPU: boot, control-path authorization, accelerator
// deployment (verify -> compile -> place), the RPC services, and the two
// remote pointer-chasing modes.

#include <gtest/gtest.h>

#include "src/dpu/hyperion.h"
#include "src/dpu/remote_tree.h"
#include "src/dpu/replication.h"
#include "src/dpu/rpc.h"
#include "src/dpu/services.h"
#include "src/ebpf/assembler.h"
#include "tests/testutil.h"

namespace hyperion::dpu {
namespace {

// Boot + services + RDMA client via BootAndConnect(); the shared harness
// holds the world (engine_, dpu_, services_, rpc_client_, ...).
using DpuTest = testutil::DpuFixture;

TEST_F(DpuTest, BootTakesSecondsAndIsIdempotent) {
  auto boot = dpu_.Boot();
  ASSERT_TRUE(boot.ok());
  EXPECT_GT(*boot, 1 * sim::kSecond);  // JTAG self-test + shell image
  EXPECT_LT(*boot, 10 * sim::kSecond);
  EXPECT_TRUE(dpu_.booted());
  EXPECT_EQ(*dpu_.Boot(), 0u);
}

TEST_F(DpuTest, ControlPathRejectsBadToken) {
  ASSERT_TRUE(dpu_.Boot().ok());
  fpga::Bitstream bs;
  bs.name = "mystery";
  EXPECT_EQ(dpu_.LoadBitstream("wrong-token", bs).status().code(),
            StatusCode::kPermissionDenied);
  auto prog = ebpf::Assemble("mov r0, 0\nexit\n");
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(dpu_.DeployAccelerator("wrong-token", *prog, 1).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(DpuTest, ControlPathRequiresBoot) {
  fpga::Bitstream bs;
  EXPECT_EQ(dpu_.LoadBitstream(dpu_.config().control_token, bs).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(DpuTest, DeployRejectsUnsafePrograms) {
  ASSERT_TRUE(dpu_.Boot().ok());
  // Out-of-bounds context access: must never reach the fabric.
  auto bad = ebpf::Assemble("ldxdw r0, [r1+4000]\nexit\n", "oob", 1514);
  ASSERT_TRUE(bad.ok());
  const auto before = dpu_.fabric().counters().Get("reconfigurations");
  EXPECT_EQ(dpu_.DeployAccelerator(dpu_.config().control_token, *bad, 1).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(dpu_.fabric().counters().Get("reconfigurations"), before);
}

TEST_F(DpuTest, DeployAndProcessPacket) {
  ASSERT_TRUE(dpu_.Boot().ok());
  auto prog = ebpf::Assemble(R"(
      ldxb r3, [r1+0]
      mov r0, 0
      jne r3, 7, done
      mov r0, 1
  done:
      exit
  )", "classify", 64);
  ASSERT_TRUE(prog.ok());
  auto accel = dpu_.DeployAccelerator(dpu_.config().control_token, *prog, 1);
  ASSERT_TRUE(accel.ok());

  Bytes match(64, 0);
  match[0] = 7;
  Bytes miss(64, 0);
  const auto t0 = engine_.Now();
  EXPECT_EQ(*dpu_.ProcessPacket(*accel, MutableByteSpan(match)), 1u);
  EXPECT_GT(engine_.Now(), t0);  // fabric cycles were charged
  EXPECT_EQ(*dpu_.ProcessPacket(*accel, MutableByteSpan(miss)), 0u);

  auto info = dpu_.DescribeAccelerator(*accel);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->packets_processed, 2u);
}

TEST_F(DpuTest, RpcSerializationRoundTrip) {
  RpcRequest request{ServiceId::kKv, KvOp::kGet, ToBytes("payload")};
  auto parsed = ParseRequestFrame(SerializeRequestFrame(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->service, ServiceId::kKv);
  EXPECT_EQ(parsed->opcode, KvOp::kGet);
  EXPECT_EQ(ToString(ByteSpan(parsed->payload.data(), parsed->payload.size())), "payload");

  RpcResponse fail = RpcResponse::Fail(NotFound("missing key"));
  auto decoded = ParseResponseFrame(SerializeResponseFrame(fail));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded->status.message(), "missing key");
}

TEST_F(DpuTest, RpcFrameMatchesContiguousWireFormat) {
  // The golden layouts are written out byte by byte, so they pin the wire
  // format independently of the codec: a flattened frame is exactly these
  // bytes, and the frame never copies the payload (it rides as a shared
  // segment).
  RpcRequest request{ServiceId::kLog, LogOp::kAppend, Buffer(Bytes(300, 0xab))};
  Bytes golden = {0x03, 0x00, 0x01, 0x00, 0x2c, 0x01, 0x00, 0x00};  // kLog, kAppend, 300
  golden.insert(golden.end(), 300, 0xab);
  BufferChain frame = SerializeRequestFrame(request);
  EXPECT_EQ(frame.Flatten(), golden);
  ASSERT_EQ(frame.segment_count(), 2u);  // header + payload
  EXPECT_EQ(frame.segment(1).data(), request.payload.data());  // shared, not copied

  auto parsed = ParseRequestFrame(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->service, ServiceId::kLog);
  EXPECT_EQ(parsed->opcode, LogOp::kAppend);
  EXPECT_EQ(parsed->payload.data(), request.payload.data());  // a slice of the frame
  EXPECT_EQ(parsed->payload, request.payload);

  RpcResponse response = RpcResponse::Ok(Buffer(Bytes(128, 0x11)));
  // OK, empty message, 128 payload bytes.
  Bytes response_golden = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00};
  response_golden.insert(response_golden.end(), 128, 0x11);
  BufferChain response_frame = SerializeResponseFrame(response);
  EXPECT_EQ(response_frame.Flatten(), response_golden);
  auto decoded = ParseResponseFrame(response_frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->payload.data(), response.payload.data());
  EXPECT_EQ(decoded->payload, response.payload);
}

// -- RPC frame corruption sweep ---------------------------------------------
//
// The frame parsers are where wire bytes enter a DPU. Whatever the bytes
// and however they are segmented, a parser returns a frame or an error.

RpcRequest FuzzRequest() {
  RpcRequest request{ServiceId::kKv, KvOp::kPut, Buffer(Bytes(40, 0x3c))};
  request.deadline = 7 * sim::kMillisecond;
  request.trace = obs::TraceContext{/*trace_id=*/0x1234500042ull, /*parent_span=*/0x9876500011ull};
  return request;
}

// FuzzRequest's frame as a sender builds it: header and payload, then a
// deadline trailer and a trace trailer.
Bytes FuzzRequestBytes() {
  const RpcRequest request = FuzzRequest();
  BufferChain frame = SerializeRequestFrame(request);
  AppendDeadlineTrailer(frame, request.deadline);
  AppendTraceTrailer(frame, request.trace);
  return frame.Flatten();
}

RpcResponse FuzzResponse() { return RpcResponse{NotFound("no such key: 42"), Bytes(16, 0x7e)}; }

Bytes FuzzResponseBytes() { return SerializeResponseFrame(FuzzResponse()).Flatten(); }

// `bytes` as a chain of two segments cut at `cut` (an empty side is dropped).
BufferChain SplitAt(const Bytes& bytes, size_t cut) {
  BufferChain chain(Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)));
  chain.Append(Buffer(Bytes(bytes.begin() + static_cast<std::ptrdiff_t>(cut), bytes.end())));
  return chain;
}

Bytes Prefix(const Bytes& bytes, size_t length) {
  return Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(length));
}

void OverwriteU32(Bytes& bytes, size_t offset, uint32_t value) {
  for (size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

TEST(RpcFrameFuzz, EverySplitParsesTheSameFrame) {
  const RpcRequest request = FuzzRequest();
  const Bytes request_bytes = FuzzRequestBytes();
  for (size_t cut = 0; cut <= request_bytes.size(); ++cut) {
    SCOPED_TRACE(cut);
    auto parsed = ParseRequestFrame(SplitAt(request_bytes, cut));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->service, request.service);
    EXPECT_EQ(parsed->opcode, request.opcode);
    EXPECT_EQ(parsed->payload, request.payload);
    EXPECT_EQ(parsed->deadline, request.deadline);
    EXPECT_EQ(parsed->trace, request.trace);
  }
  const RpcResponse response = FuzzResponse();
  const Bytes response_bytes = FuzzResponseBytes();
  for (size_t cut = 0; cut <= response_bytes.size(); ++cut) {
    SCOPED_TRACE(cut);
    auto decoded = ParseResponseFrame(SplitAt(response_bytes, cut));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->status.code(), response.status.code());
    EXPECT_EQ(decoded->status.message(), response.status.message());
    EXPECT_EQ(decoded->payload, response.payload);
  }
}

TEST(RpcFrameFuzz, TruncationIsAnErrorOrAShorterTrailerWalk) {
  const RpcRequest request = FuzzRequest();
  const Bytes request_bytes = FuzzRequestBytes();
  const size_t body = 8 + request.payload.size();  // header + payload
  const size_t with_deadline = body + 12;          // the first trailer whole
  for (size_t length = 0; length <= request_bytes.size(); ++length) {
    SCOPED_TRACE(length);
    auto parsed = ParseRequestFrame(Prefix(request_bytes, length));
    if (length < body) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->payload, request.payload);
    EXPECT_EQ(parsed->deadline, length >= with_deadline ? request.deadline : kNoDeadline);
    EXPECT_EQ(parsed->trace,
              length == request_bytes.size() ? request.trace : obs::TraceContext{});
  }
  const Bytes response_bytes = FuzzResponseBytes();
  for (size_t length = 0; length < response_bytes.size(); ++length) {
    SCOPED_TRACE(length);
    EXPECT_EQ(ParseResponseFrame(Prefix(response_bytes, length)).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(RpcFrameFuzz, RandomByteFlipsNeverCrash) {
  // Each round flips one byte of a pristine frame and parses it whole and
  // split at a random offset. Either parse may fail; a parsed payload is
  // always the frame's own bytes.
  constexpr int kFlips = 2000;
  Rng rng(2201);
  auto flip = [&rng](Bytes bytes) {
    bytes[rng.Uniform(bytes.size())] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    return bytes;
  };
  const Bytes request_bytes = FuzzRequestBytes();
  for (int round = 0; round < kFlips; ++round) {
    const Bytes mutated = flip(request_bytes);
    const Result<RpcRequest> whole = ParseRequestFrame(mutated);
    const Result<RpcRequest> split =
        ParseRequestFrame(SplitAt(mutated, rng.Uniform(mutated.size() + 1)));
    ASSERT_EQ(whole.ok(), split.ok()) << "round " << round;
    if (whole.ok()) {
      EXPECT_EQ(whole->payload, Buffer(Bytes(mutated.begin() + 8,
                                             mutated.begin() + 8 + whole->payload.size())));
      EXPECT_EQ(split->payload, whole->payload);
      EXPECT_EQ(split->deadline, whole->deadline);
      EXPECT_EQ(split->trace, whole->trace);
    }
  }
  const Bytes response_bytes = FuzzResponseBytes();
  for (int round = 0; round < kFlips; ++round) {
    const Bytes mutated = flip(response_bytes);
    const Result<RpcResponse> whole = ParseResponseFrame(mutated);
    const Result<RpcResponse> split =
        ParseResponseFrame(SplitAt(mutated, rng.Uniform(mutated.size() + 1)));
    ASSERT_EQ(whole.ok(), split.ok()) << "round " << round;
    if (whole.ok()) {
      EXPECT_LE(whole->payload.size(), mutated.size());
      EXPECT_EQ(split->status.code(), whole->status.code());
      EXPECT_EQ(split->status.message(), whole->status.message());
      EXPECT_EQ(split->payload, whole->payload);
    }
  }
}

TEST(RpcFrameFuzz, OverlongLengthsAreDataLoss) {
  Bytes request = FuzzRequestBytes();
  OverwriteU32(request, 4, UINT32_MAX);  // payload length
  EXPECT_EQ(ParseRequestFrame(request).status().code(), StatusCode::kDataLoss);

  const Bytes response = FuzzResponseBytes();
  const uint32_t message_room = static_cast<uint32_t>(response.size() - 8);
  for (uint32_t message_len : {message_room + 1, UINT32_MAX}) {
    SCOPED_TRACE(message_len);
    Bytes corrupt = response;
    OverwriteU32(corrupt, 4, message_len);
    EXPECT_EQ(ParseResponseFrame(corrupt).status().code(), StatusCode::kDataLoss);
  }
  Bytes corrupt = response;
  OverwriteU32(corrupt, 8 + FuzzResponse().status.message().size(), UINT32_MAX);  // payload length
  EXPECT_EQ(ParseResponseFrame(corrupt).status().code(), StatusCode::kDataLoss);
}

TEST_F(DpuTest, KvServiceOverRpc) {
  BootAndConnect();
  Bytes put;
  PutU64(put, 42);
  Bytes value = ToBytes("hello-dpu");
  PutU32(put, static_cast<uint32_t>(value.size()));
  PutBytes(put, ByteSpan(value.data(), value.size()));
  EXPECT_TRUE(Call(ServiceId::kKv, KvOp::kPut, put).status.ok());

  Bytes get;
  PutU64(get, 42);
  RpcResponse got = Call(ServiceId::kKv, KvOp::kGet, get);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.payload, value);

  Bytes missing;
  PutU64(missing, 999);
  EXPECT_EQ(Call(ServiceId::kKv, KvOp::kGet, missing).status.code(), StatusCode::kNotFound);

  EXPECT_TRUE(Call(ServiceId::kKv, KvOp::kDelete, get).status.ok());
  EXPECT_EQ(Call(ServiceId::kKv, KvOp::kGet, get).status.code(), StatusCode::kNotFound);
}

TEST_F(DpuTest, KvScanOverRpc) {
  BootAndConnect();
  for (uint64_t k = 10; k < 20; ++k) {
    Bytes put;
    PutU64(put, k);
    Bytes value;
    PutU64(value, k * 2);
    PutU32(put, static_cast<uint32_t>(value.size()));
    PutBytes(put, ByteSpan(value.data(), value.size()));
    ASSERT_TRUE(Call(ServiceId::kKv, KvOp::kPut, put).status.ok());
  }
  Bytes scan;
  PutU64(scan, 12);
  PutU64(scan, 15);
  RpcResponse rows = Call(ServiceId::kKv, KvOp::kScan, scan);
  ASSERT_TRUE(rows.status.ok());
  EXPECT_EQ(GetU32(rows.payload, 0), 4u);  // keys 12..15
}

// A remote client picks slba: a block RPC whose slba + blocks wraps past
// 2^64 gets an error reply, and the node keeps serving.
TEST_F(DpuTest, WrappedSlbaBlockRpcFailsAndNodeKeepsServing) {
  BootAndConnect();
  constexpr uint32_t kNsid = 2;
  Bytes read;
  PutU32(read, kNsid);
  PutU64(read, UINT64_MAX - 3);
  PutU32(read, 8);
  EXPECT_EQ(Call(ServiceId::kBlock, BlockOp::kRead, read).status.code(),
            StatusCode::kOutOfRange);
  const Bytes blocks(8 * nvme::kLbaSize, 0x5a);
  Bytes write;
  PutU32(write, kNsid);
  PutU64(write, UINT64_MAX - 3);
  PutBytes(write, ByteSpan(blocks.data(), blocks.size()));
  EXPECT_EQ(Call(ServiceId::kBlock, BlockOp::kWrite, write).status.code(),
            StatusCode::kOutOfRange);

  Bytes in_range;
  PutU32(in_range, kNsid);
  PutU64(in_range, 0);
  PutBytes(in_range, ByteSpan(blocks.data(), blocks.size()));
  ASSERT_TRUE(Call(ServiceId::kBlock, BlockOp::kWrite, in_range).status.ok());
  Bytes read_back;
  PutU32(read_back, kNsid);
  PutU64(read_back, 0);
  PutU32(read_back, 8);
  RpcResponse got = Call(ServiceId::kBlock, BlockOp::kRead, read_back);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.payload, blocks);
}

// Corfu positions are remote-chosen too: a fill at 2^64 - 1 would wrap the
// log's tail to 0 and turn every later append into a write-once conflict.
// It gets an error reply, and appends keep taking the next position.
TEST_F(DpuTest, WrappingLogPositionRpcFailsAndAppendsContinue) {
  BootAndConnect();
  const Bytes entry = ToBytes("entry");
  ASSERT_TRUE(Call(ServiceId::kLog, LogOp::kAppend, entry).status.ok());  // position 0
  Bytes fill;
  PutU64(fill, UINT64_MAX);
  EXPECT_EQ(Call(ServiceId::kLog, LogOp::kFill, fill).status.code(), StatusCode::kOutOfRange);
  RpcResponse tail = Call(ServiceId::kLog, LogOp::kTail, {});
  ASSERT_TRUE(tail.status.ok());
  EXPECT_EQ(GetU64(tail.payload, 0), 1u);
  RpcResponse appended = Call(ServiceId::kLog, LogOp::kAppend, entry);
  ASSERT_TRUE(appended.status.ok());
  EXPECT_EQ(GetU64(appended.payload, 0), 1u);
}

// A log or block request too short to hold its operand is malformed; it
// must not act on a zero read past the end of the payload.
TEST_F(DpuTest, TruncatedLogAndBlockRequestsAreRejected) {
  BootAndConnect();
  EXPECT_EQ(Call(ServiceId::kLog, LogOp::kFill, {}).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Call(ServiceId::kLog, LogOp::kTrim, {}).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Call(ServiceId::kBlock, BlockOp::kFlush, {}).status.code(),
            StatusCode::kInvalidArgument);
  // The empty fill left position 0 unfilled.
  RpcResponse tail = Call(ServiceId::kLog, LogOp::kTail, {});
  ASSERT_TRUE(tail.status.ok());
  EXPECT_EQ(GetU64(tail.payload, 0), 0u);
}

// A kRepKv request at epoch 0: [epoch u32][operand u64]...
Bytes RepRequest(std::initializer_list<uint64_t> operands) {
  Bytes payload;
  PutU32(payload, 0);
  for (const uint64_t operand : operands) {
    PutU64(payload, operand);
  }
  return payload;
}

// A kWrite of entry [kind u8][key u64][len u32][value] at `position`.
Bytes RepWrite(uint64_t position, uint8_t kind, uint64_t key, const std::string& value) {
  Bytes payload = RepRequest({position});
  payload.push_back(kind);
  PutU64(payload, key);
  PutU32(payload, static_cast<uint32_t>(value.size()));
  const Bytes bytes = ToBytes(value);
  PutBytes(payload, ByteSpan(bytes.data(), bytes.size()));
  return payload;
}

// A recovered tail that would wrap the sequencer's ceiling is refused over
// the wire, and the replica keeps sequencing from where it was.
TEST_F(DpuTest, WrappingRepTailAdoptionFailsAndReservesContinue) {
  BootAndConnect();
  auto replica = ReplicatedKvService::Install(&dpu_);
  ASSERT_TRUE(replica.ok());
  RpcResponse first = Call(ServiceId::kRepKv, RepOp::kReserve, RepRequest({}));
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(GetU64(first.payload, 0), 0u);
  EXPECT_EQ(Call(ServiceId::kRepKv, RepOp::kAdoptTail, RepRequest({UINT64_MAX})).status.code(),
            StatusCode::kOutOfRange);
  RpcResponse next = Call(ServiceId::kRepKv, RepOp::kReserve, RepRequest({}));
  ASSERT_TRUE(next.status.ok());
  EXPECT_EQ(GetU64(next.payload, 0), 1u);
}

// Every RepOp decoder rejects a request too short for its operands, and a
// write whose entry does not decode leaves nothing in the write-once log
// for repair to copy.
TEST_F(DpuTest, MalformedRepRequestsAreRejectedBeforeTheLog) {
  BootAndConnect();
  auto replica = ReplicatedKvService::Install(&dpu_);
  ASSERT_TRUE(replica.ok());
  auto code = [this](uint16_t opcode, Bytes payload) {
    return Call(ServiceId::kRepKv, opcode, std::move(payload)).status.code();
  };
  for (uint16_t opcode = RepOp::kReserve; opcode <= RepOp::kFill; ++opcode) {
    EXPECT_EQ(code(opcode, {}), StatusCode::kInvalidArgument) << opcode;
    if (opcode != RepOp::kReserve) {  // the only opcode with no operand
      EXPECT_EQ(code(opcode, RepRequest({})), StatusCode::kInvalidArgument) << opcode;
    }
  }
  EXPECT_EQ(code(RepOp::kFill + 1, RepRequest({})), StatusCode::kUnimplemented);

  EXPECT_EQ(code(RepOp::kWrite, RepWrite(0, /*kind=*/9, 42, "abc")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(RepOp::kReadAt, RepRequest({0})), StatusCode::kNotFound);
  EXPECT_EQ(code(RepOp::kWrite, RepWrite(0, RepEntryKind::kPut, 42, "abc")), StatusCode::kOk);
  RpcResponse read = Call(ServiceId::kRepKv, RepOp::kRead, RepRequest({42}));
  ASSERT_TRUE(read.status.ok());
  EXPECT_EQ(read.payload[0], 1u);          // present
  EXPECT_EQ(GetU64(read.payload, 1), 1u);  // stamp = position + 1
}

TEST_F(DpuTest, LogServiceOverRpc) {
  BootAndConnect();
  Bytes entry = ToBytes("log-entry-0");
  RpcResponse appended = Call(ServiceId::kLog, LogOp::kAppend, entry);
  ASSERT_TRUE(appended.status.ok());
  const uint64_t position = GetU64(appended.payload, 0);
  EXPECT_EQ(position, 0u);

  Bytes read;
  PutU64(read, position);
  RpcResponse got = Call(ServiceId::kLog, LogOp::kRead, read);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.payload, entry);

  RpcResponse tail = Call(ServiceId::kLog, LogOp::kTail, {});
  ASSERT_TRUE(tail.status.ok());
  EXPECT_EQ(GetU64(tail.payload, 0), 1u);
}

TEST_F(DpuTest, ControlDeployOverRpc) {
  BootAndConnect();
  auto prog = ebpf::Assemble("mov r0, 99\nexit\n", "remote", 64);
  ASSERT_TRUE(prog.ok());
  Bytes payload;
  PutString(payload, std::string(dpu_.config().control_token));
  PutU32(payload, /*tenant=*/3);
  Bytes program_bytes = ebpf::SerializeProgram(*prog);
  PutBytes(payload, ByteSpan(program_bytes.data(), program_bytes.size()));
  RpcResponse deployed = Call(ServiceId::kControl, ControlOp::kDeploy, payload);
  ASSERT_TRUE(deployed.status.ok());
  const auto accel = static_cast<AcceleratorId>(GetU32(deployed.payload, 0));
  Bytes packet(64, 0);
  EXPECT_EQ(*dpu_.ProcessPacket(accel, MutableByteSpan(packet)), 99u);
}

TEST_F(DpuTest, ControlDeployWithBadTokenFailsOverRpc) {
  BootAndConnect();
  auto prog = ebpf::Assemble("mov r0, 0\nexit\n");
  ASSERT_TRUE(prog.ok());
  Bytes payload;
  PutString(payload, "not-the-token");
  PutU32(payload, 1);
  Bytes program_bytes = ebpf::SerializeProgram(*prog);
  PutBytes(payload, ByteSpan(program_bytes.data(), program_bytes.size()));
  EXPECT_EQ(Call(ServiceId::kControl, ControlOp::kDeploy, payload).status.code(),
            StatusCode::kPermissionDenied);
}

// -- Pointer chasing -----------------------------------------------------

TEST_F(DpuTest, OffloadedLookupBeatsClientDriven) {
  BootAndConnect();
  // Populate the tree service with enough keys for height >= 3.
  for (uint64_t k = 0; k < 3000; ++k) {
    Bytes v;
    PutU64(v, k + 1);
    ASSERT_TRUE(services_->tree().Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  ASSERT_GE(services_->tree().Height(), 3u);

  RemoteTreeClient remote(rpc_client_.get());

  const auto t0 = engine_.Now();
  auto offloaded = remote.OffloadedGet(1234);
  const auto offloaded_latency = engine_.Now() - t0;
  ASSERT_TRUE(offloaded.ok());
  EXPECT_EQ(remote.rpcs_issued(), 1u);

  remote.ResetStats();
  const auto t1 = engine_.Now();
  auto client_driven = remote.ClientDrivenGet(1234);
  const auto client_latency = engine_.Now() - t1;
  ASSERT_TRUE(client_driven.ok());
  EXPECT_EQ(*offloaded, *client_driven);
  // info + height node fetches.
  EXPECT_EQ(remote.rpcs_issued(), 1u + services_->tree().Height());
  EXPECT_GT(client_latency, offloaded_latency);
}

TEST_F(DpuTest, ClientDrivenMissesGracefully) {
  BootAndConnect();
  Bytes v = {1};
  ASSERT_TRUE(services_->tree().Insert(1, ByteSpan(v.data(), 1)).ok());
  RemoteTreeClient remote(rpc_client_.get());
  EXPECT_EQ(remote.ClientDrivenGet(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(remote.OffloadedGet(999).status().code(), StatusCode::kNotFound);
}

TEST_F(DpuTest, EnergyEnvelopeMatchesPaperRatio) {
  // The DPU's peak power divided into the server's: the paper's 4-8x claim.
  const double ratio = sim::MakeServerEnergyModel().PeakWatts() / dpu_.energy().PeakWatts();
  EXPECT_GE(ratio, 4.0);
  EXPECT_LE(ratio, 8.0);
}

}  // namespace
}  // namespace hyperion::dpu

namespace control_path_extras {

using namespace hyperion;  // NOLINT
using namespace hyperion::dpu;  // NOLINT

class ControlTest : public testutil::DpuFixture {
 protected:
  ControlTest() { Boot(); }  // booted, but no services until a test asks

  ebpf::Program Trivial(const std::string& name) {
    auto prog = ebpf::Assemble("mov r0, 1\nexit\n", name, 64);
    CHECK_OK(prog.status());
    return *prog;
  }
};

TEST_F(ControlTest, UndeployFreesTheSlotForEviction) {
  // Fill every region (default fabric has 5) with pinned accelerators.
  std::vector<AcceleratorId> accels;
  for (int i = 0; i < 5; ++i) {
    auto accel =
        dpu_.DeployAccelerator(dpu_.config().control_token, Trivial("t" + std::to_string(i)), 1);
    ASSERT_TRUE(accel.ok()) << i;
    accels.push_back(*accel);
  }
  // Sixth deployment: everything pinned.
  EXPECT_EQ(dpu_.DeployAccelerator(dpu_.config().control_token, Trivial("overflow"), 1)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  // Undeploy one; the slot becomes evictable and deployment succeeds.
  ASSERT_TRUE(dpu_.UndeployAccelerator(dpu_.config().control_token, accels[2]).ok());
  auto replacement = dpu_.DeployAccelerator(dpu_.config().control_token, Trivial("fresh"), 2);
  ASSERT_TRUE(replacement.ok());
  // The retired accelerator no longer processes packets.
  Bytes packet(64, 0);
  EXPECT_EQ(dpu_.ProcessPacket(accels[2], MutableByteSpan(packet)).status().code(),
            StatusCode::kInvalidArgument);
  // Double undeploy rejected; bad token rejected.
  EXPECT_FALSE(dpu_.UndeployAccelerator(dpu_.config().control_token, accels[2]).ok());
  EXPECT_EQ(dpu_.UndeployAccelerator("bad", accels[0]).code(), StatusCode::kPermissionDenied);
}

TEST_F(ControlTest, CreateMapOverControlPathAndUseIt) {
  auto map_id = dpu_.CreateMap(dpu_.config().control_token,
                               {ebpf::MapType::kArray, 4, 8, 4, "stats", /*tenant=*/7});
  ASSERT_TRUE(map_id.ok());
  EXPECT_EQ(dpu_.CreateMap("bad", {}).status().code(), StatusCode::kPermissionDenied);

  const std::string source = R"(
      stw [r10-4], 1
      ld_map_fd r1, )" + std::to_string(*map_id) + R"(
      mov r2, r10
      add r2, -4
      call map_lookup
      jeq r0, 0, out
      mov r4, 1
      xadddw [r0+0], r4
  out:
      mov r0, 0
      exit
  )";
  auto prog = ebpf::Assemble(source, "counter", 64);
  ASSERT_TRUE(prog.ok());
  // Owner deploys; stranger does not.
  ASSERT_TRUE(dpu_.DeployAccelerator(dpu_.config().control_token, *prog, 7).ok());
  EXPECT_EQ(dpu_.DeployAccelerator(dpu_.config().control_token, *prog, 8).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ControlTest, RawBitstreamLoadOverRpc) {
  InstallServices();
  ConnectClient();

  Bytes payload;
  PutString(payload, std::string(dpu_.config().control_token));
  PutU32(payload, /*tenant=*/3);
  PutString(payload, "hand_synthesized_kv");
  PutU64(payload, 6ull << 20);  // 6 MiB partial bitstream
  PutU32(payload, 2);           // slices
  PutU32(payload, 3200);        // 320.0 MHz
  const sim::SimTime t0 = engine_.Now();
  auto loaded =
      rpc_client_->Call({ServiceId::kControl, ControlOp::kLoadBitstream, std::move(payload)});
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->status.ok());
  const auto region = GetU32(loaded->payload, 0);
  // The reconfiguration really happened (10-100 ms of virtual time).
  EXPECT_GT(engine_.Now() - t0, 10 * sim::kMillisecond);
  auto resident = dpu_.fabric().LoadedBitstream(region);
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(resident->name, "hand_synthesized_kv");
  EXPECT_DOUBLE_EQ(resident->fmax_mhz, 320.0);
}

}  // namespace control_path_extras

namespace composition_checks {

using namespace hyperion;  // NOLINT
using namespace hyperion::dpu;  // NOLINT

TEST(CompositionTest, BusAddressMapRoutesTiersAndDevices) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  Hyperion dpu(&engine, &fabric);
  // The static Figure-2 address split: low = DRAM, 0x1000... = HBM,
  // 0x2000... = NVMe BARs (one window per device).
  EXPECT_EQ(*dpu.axi().Route(0x0000'0000'1000ull), fpga::Port::kDram);
  EXPECT_EQ(*dpu.axi().Route(0x1000'0000'0010ull), fpga::Port::kHbm);
  EXPECT_EQ(*dpu.axi().Route(0x2000'0000'0000ull), fpga::Port::kNvme0);
  EXPECT_EQ(*dpu.axi().Route(0x2100'0000'0000ull), fpga::Port::kNvme1);
  EXPECT_EQ(*dpu.axi().Route(0x2300'0000'0000ull), fpga::Port::kNvme3);
  // Holes are unmapped.
  EXPECT_FALSE(dpu.axi().Route(0x0F00'0000'0000ull).ok());
}

TEST(CompositionTest, PacketProcessingChargesFabricEnergy) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  Hyperion dpu(&engine, &fabric);
  CHECK_OK(dpu.Boot());
  auto prog = ebpf::Assemble("mov r0, 1\nexit\n", "tiny", 64);
  ASSERT_TRUE(prog.ok());
  auto accel = dpu.DeployAccelerator(dpu.config().control_token, *prog, 1);
  ASSERT_TRUE(accel.ok());
  const double idle_joules = dpu.energy().TotalJoules(engine.Now());
  Bytes packet(64, 0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(dpu.ProcessPacket(*accel, MutableByteSpan(packet)).ok());
  }
  // Active fabric draw accrued on top of the idle floor.
  EXPECT_GT(dpu.energy().TotalJoules(engine.Now()), idle_joules);
}

TEST(CompositionTest, FourNamespacesBehindBifurcatedLinks) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  Hyperion dpu(&engine, &fabric);
  EXPECT_EQ(dpu.nvme().NamespaceCount(), 4u);
  // FPGA root complex + 4 NVMe endpoints, x4 each (Figure 1's bifurcation).
  EXPECT_EQ(dpu.pcie_topology().NodeCount(), 5u);
  for (pcie::NodeId d = 1; d <= 4; ++d) {
    EXPECT_EQ(dpu.pcie_topology().node(d).uplink.lanes, 4);
    EXPECT_EQ(*dpu.pcie_topology().PathHops(0, d), 1u);
  }
}

}  // namespace composition_checks
