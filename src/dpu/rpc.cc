#include "src/dpu/rpc.h"

#include <algorithm>

namespace hyperion::dpu {

namespace {

// Header segment of a request frame: [service u16][opcode u16][len u32].
constexpr size_t kRequestHeaderBytes = 8;

Buffer RequestHeader(const RpcRequest& request) {
  return Buffer::Build(kRequestHeaderBytes, [&request](MutableByteSpan out) {
    SetU16(out, 0, static_cast<uint16_t>(request.service));
    SetU16(out, 2, request.opcode);
    SetU32(out, 4, static_cast<uint32_t>(request.payload.size()));
  });
}

// Header segment of a response frame: [code u32][msg str][len u32].
Buffer ResponseHeader(const RpcResponse& response) {
  const std::string_view message = response.status.message();
  return Buffer::Build(12 + message.size(), [&](MutableByteSpan out) {
    SetU32(out, 0, static_cast<uint32_t>(response.status.code()));
    SetU32(out, 4, static_cast<uint32_t>(message.size()));
    std::copy(message.begin(), message.end(), out.begin() + 8);
    SetU32(out, 8 + message.size(), static_cast<uint32_t>(response.payload.size()));
  });
}

// Trailer magics ("TRC1" / "DLN1", little-endian), each leading a
// fixed-size block appended past the request frame's header+payload.
constexpr uint32_t kTraceTrailerMagic = 0x31435254;
constexpr size_t kTraceTrailerBytes = 20;
constexpr uint32_t kDeadlineTrailerMagic = 0x314e4c44;
constexpr size_t kDeadlineTrailerBytes = 12;

}  // namespace

BufferChain SerializeRequestFrame(const RpcRequest& request, size_t trailers) {
  BufferChain frame;
  frame.Reserve(1 + (request.payload.empty() ? 0 : 1) + trailers);
  frame.Append(RequestHeader(request));
  frame.Append(request.payload);
  return frame;
}

Result<RpcRequest> ParseRequestFrame(const BufferChain& frame) {
  // Holds a fixed-size field that straddles segments; the largest is a
  // trace trailer's body.
  uint8_t scratch_bytes[kTraceTrailerBytes - 4];
  const MutableByteSpan scratch(scratch_bytes, sizeof(scratch_bytes));
  ChainReader reader(frame);
  ByteReader header(reader.Next(kRequestHeaderBytes, scratch));
  RpcRequest request;
  request.service = static_cast<ServiceId>(header.ReadU16());
  request.opcode = header.ReadU16();
  const uint32_t len = header.ReadU32();
  if (!header.Ok() || reader.remaining() < len) {
    return DataLoss("truncated RPC request");
  }
  request.payload = reader.Slice(len);
  // Trailers, in whatever order they were appended. An unknown magic or a
  // short block ends the walk; whatever parsed before it stands.
  while (reader.remaining() >= 4) {
    const uint32_t magic = ByteReader(reader.Next(4, scratch)).ReadU32();
    if (magic == kTraceTrailerMagic && reader.remaining() >= kTraceTrailerBytes - 4) {
      ByteReader body(reader.Next(kTraceTrailerBytes - 4, scratch));
      request.trace.trace_id = body.ReadU64();
      request.trace.parent_span = body.ReadU64();
    } else if (magic == kDeadlineTrailerMagic &&
               reader.remaining() >= kDeadlineTrailerBytes - 4) {
      request.deadline = ByteReader(reader.Next(kDeadlineTrailerBytes - 4, scratch)).ReadU64();
    } else {
      break;
    }
  }
  return request;
}

BufferChain SerializeResponseFrame(const RpcResponse& response) {
  BufferChain frame;
  frame.Reserve(response.payload.empty() ? 1 : 2);
  frame.Append(ResponseHeader(response));
  frame.Append(response.payload);
  return frame;
}

Result<RpcResponse> ParseResponseFrame(const BufferChain& frame) {
  uint8_t scratch_bytes[8];
  const MutableByteSpan scratch(scratch_bytes, sizeof(scratch_bytes));
  ChainReader reader(frame);
  ByteReader prefix(reader.Next(8, scratch));  // [code u32][msg_len u32]
  const auto code = static_cast<StatusCode>(prefix.ReadU32());
  const uint32_t message_len = prefix.ReadU32();
  // Bound the message by the frame before sizing its scratch from it.
  if (!prefix.Ok() || reader.remaining() < message_len) {
    return DataLoss("truncated RPC response");
  }
  const Buffer message = reader.Slice(message_len);
  const uint32_t len = ByteReader(reader.Next(4, scratch)).ReadU32();
  if (!reader.ok() || reader.remaining() < len) {
    return DataLoss("truncated RPC response");
  }
  RpcResponse response;
  response.status =
      Status(code, std::string_view(reinterpret_cast<const char*>(message.data()), message_len));
  response.payload = reader.Slice(len);
  return response;
}

void AppendTraceTrailer(BufferChain& frame, obs::TraceContext context) {
  frame.Append(Buffer::Build(kTraceTrailerBytes, [context](MutableByteSpan out) {
    SetU32(out, 0, kTraceTrailerMagic);
    SetU64(out, 4, context.trace_id);
    SetU64(out, 12, context.parent_span);
  }));
}

void AppendDeadlineTrailer(BufferChain& frame, sim::SimTime deadline) {
  frame.Append(Buffer::Build(kDeadlineTrailerBytes, [deadline](MutableByteSpan out) {
    SetU32(out, 0, kDeadlineTrailerMagic);
    SetU64(out, 4, deadline);
  }));
}

void RpcServer::RegisterService(ServiceId service, Handler handler) {
  handlers_[service] = std::move(handler);
}

RpcResponse RpcServer::Dispatch(const RpcRequest& request, obs::TraceContext context) {
  counters_.Increment("rpcs");
  auto it = handlers_.find(request.service);
  if (it == handlers_.end()) {
    counters_.Increment("rpc_unknown_service");
    return RpcResponse::Fail(NotFound("no such service"));
  }
  // Stack-scoped: substrate spans the handler opens (nvme.*, pcie.*, ...)
  // nest under the dispatch span on the same per-node tracer.
  obs::ScopedSpan dispatch(tracer_, clock_, obs::Subsystem::kRpc, "rpc.dispatch", context);
  return it->second(request.opcode, request.payload);
}

namespace {
// Failure modes a fresh attempt can plausibly fix: a message that fell off
// the wire or failed its checksum. Deterministic rejections (bad service,
// exhausted transport-internal retries) surface immediately.
bool Retryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable || status.code() == StatusCode::kDataLoss;
}
}  // namespace

Result<RpcResponse> RpcClient::Attempt(const RpcRequest& request) {
  const uint64_t copies_before = BufferCopiedBytes();
  obs::ScopedSpan attempt(tracer_, transport_->engine(), obs::Subsystem::kRpc, "rpc.attempt");
  // Request flight: the frame shares the payload's backing bytes.
  const BufferChain wire_request = SerializeRequestFrame(request);
  RETURN_IF_ERROR(transport_->SendFrame(self_, server_, wire_request).status());
  // Execution at the DPU (advances the shared clock).
  RpcResponse response = peer_->Dispatch(request, attempt.context());
  // Response flight.
  const BufferChain wire_response = SerializeResponseFrame(response);
  if (injector_ != nullptr && injector_->ShouldInject(sim::FaultSite::kRpcResponseDrop)) {
    // The server executed but the response evaporated; the client cannot
    // tell this apart from a lost request and must reissue.
    return Unavailable("rpc response lost");
  }
  RETURN_IF_ERROR(transport_->SendFrame(server_, self_, wire_response).status());
  // Model the decode round trip through the frame codec for fidelity; the
  // decoded payload is a slice of the wire frame, not a copy.
  ASSIGN_OR_RETURN(RpcResponse decoded, ParseResponseFrame(wire_response));
  counters_.Add("copy_bytes", BufferCopiedBytes() - copies_before);
  return decoded;
}

Result<RpcResponse> RpcClient::Call(const RpcRequest& request) {
  return CallWithDeadline(request, kNoDeadline);
}

Result<RpcResponse> RpcClient::CallWithDeadline(const RpcRequest& request,
                                                sim::SimTime deadline) {
  obs::ScopedSpan call(tracer_, transport_->engine(), obs::Subsystem::kRpc, "rpc.call");
  // Stamp the deadline into the request so a deadline-aware server (one
  // with admission control) can shed work it cannot finish in time.
  RpcRequest stamped = request;
  stamped.deadline = deadline;
  return CallLoop(stamped, deadline);
}

Result<RpcResponse> RpcClient::CallLoop(const RpcRequest& request, sim::SimTime deadline) {
  sim::Engine* engine = transport_->engine();
  const uint32_t max_attempts = std::max<uint32_t>(1, policy_.max_attempts);
  sim::Duration backoff = policy_.initial_backoff;
  Status last_error = Unavailable("rpc not attempted");
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (engine->Now() >= deadline) {
      counters_.Increment("rpc_deadline_exceeded");
      return DeadlineExceeded("rpc deadline exceeded");
    }
    counters_.Increment("rpc_attempts");
    Result<RpcResponse> result = Attempt(request);
    if (result.ok()) {
      if (attempt > 0) {
        counters_.Increment("rpc_recoveries");
      }
      return result;
    }
    last_error = result.status();
    if (!Retryable(last_error)) {
      return last_error;
    }
    if (attempt + 1 == max_attempts) {
      break;
    }
    // Exponential backoff, truncated at the deadline: sleeping past it
    // would only discover the timeout later. When the attempt itself burned
    // the remaining budget the truncated sleep is zero-length, not a full
    // backoff — the old code skipped truncation entirely once Now() reached
    // the deadline and overslept by up to max_backoff.
    if (deadline != kNoDeadline && engine->Now() >= deadline) {
      counters_.Increment("rpc_deadline_exceeded");
      return DeadlineExceeded("rpc deadline exceeded");
    }
    sim::Duration sleep = backoff;
    if (deadline != kNoDeadline) {
      sleep = std::min<sim::Duration>(sleep, deadline - engine->Now());
    }
    {
      obs::ScopedSpan backoff_span(tracer_, engine, obs::Subsystem::kRpc, "rpc.backoff");
      engine->Advance(sleep);
    }
    counters_.Increment("rpc_retries");
    counters_.Add("rpc_backoff_ns", sleep);
    // Grow in floating point and clamp *before* converting back: a large
    // multiplier can push the product past 2^64, and float-to-integer
    // conversion of an out-of-range value is undefined behaviour.
    const double grown = static_cast<double>(backoff) * policy_.backoff_multiplier;
    backoff = grown >= static_cast<double>(policy_.max_backoff)
                  ? policy_.max_backoff
                  : static_cast<sim::Duration>(grown);
  }
  counters_.Increment("rpc_retries_exhausted");
  return last_error;
}

ShardedRpcNode::ShardedRpcNode(sim::ParallelEngine* engine, uint32_t shard, RpcServer* server,
                               sim::Engine* node_clock, const net::FabricParams& wire,
                               double link_gbps)
    : engine_(engine),
      shard_(shard),
      source_(engine->AddSource(shard)),
      server_(server),
      node_clock_(node_clock),
      wire_(wire),
      link_gbps_(link_gbps) {
  // The fixed path cost of a zero-byte message bounds every frame's latency
  // from below: that is this node's contribution to the lookahead.
  engine_->DeclareLinkLatency(net::MinOneWayLatency(wire_));
}

sim::Duration ShardedRpcNode::WireLatency(uint64_t bytes, const ShardedRpcNode& peer) const {
  return net::OneWayLatencyModel(wire_, link_gbps_, peer.link_gbps_, bytes);
}

void ShardedRpcNode::CallAsync(ShardedRpcNode* peer, const RpcRequest& request,
                               Completion done) {
  if (h_async_calls_ == kUnresolved) [[unlikely]] {
    h_async_calls_ = counters_.Intern("rpc_async_calls");
  }
  counters_.Increment(h_async_calls_);
  const bool traced = obs::kCompiledIn && tracer_ != nullptr && tracer_->enabled();
  const bool deadlined = request.deadline != kNoDeadline;
  BufferChain frame = SerializeRequestFrame(request, size_t{deadlined} + size_t{traced});
  const sim::SimTime now = engine_->shard(shard_).Now();
  // Latency from the pre-trailer size: trailers are metadata, not modelled
  // wire bytes, so traced/deadlined runs are time-identical to plain ones.
  const sim::Duration latency = WireLatency(frame.size(), *peer);
  if (deadlined) {
    AppendDeadlineTrailer(frame, request.deadline);
  }
  if (traced) {
    const obs::SpanId call = tracer_->BeginAsync(obs::Subsystem::kRpc, "rpc.call", now);
    AppendTraceTrailer(frame, tracer_->ContextOf(call));
    done = [this, call, inner = std::move(done)](RpcResponse response) {
      tracer_->End(call, engine_->shard(shard_).Now());
      inner(std::move(response));
    };
  }
  auto deliver = [peer, self = this, frame = std::move(frame), done = std::move(done)]() mutable {
    peer->ServeFrame(std::move(frame), self, std::move(done));
  };
  static_assert(sizeof(deliver) <= sim::EventFn::kInlineBytes,
                "a request hop's closure must fit the event's inline storage");
  engine_->Post(source_, peer->shard_, now + latency, std::move(deliver));
}

void ShardedRpcNode::ServeFrame(BufferChain frame, ShardedRpcNode* reply_to, Completion done) {
  const sim::SimTime arrival = engine_->shard(shard_).Now();
  Result<RpcRequest> request = ParseRequestFrame(frame);
  obs::SpanId serve = 0;
  if (obs::kCompiledIn && tracer_ != nullptr && tracer_->enabled()) {
    // Stitch under the caller's span carried in the frame trailer (empty
    // context — a fresh root — when the caller was untraced).
    serve = tracer_->BeginAsync(obs::Subsystem::kRpc, "rpc.serve", arrival,
                                request.ok() ? request->trace : obs::TraceContext{});
  }
  RpcResponse response;
  sim::SimTime finish = arrival;
  bool admitted = true;
  if (!request.ok()) {
    response = RpcResponse::Fail(request.status());
  } else if (server_ == nullptr) {
    response = RpcResponse::Fail(InvalidArgument("node has no RPC server"));
  } else {
    if (admission_ != nullptr) {
      const sim::AdmissionDecision decision =
          admission_->Decide(arrival, node_clock_->Now(), request->deadline);
      admitted = decision == sim::AdmissionDecision::kAdmit;
      if (!admitted) {
        counters_.Increment(decision == sim::AdmissionDecision::kShedDeadline
                                ? "rpc_shed_deadline"
                                : "rpc_shed_queue");
        response = RpcResponse::Fail(ResourceExhausted("server overloaded"));
        // NIC-level bounce: the reject costs event time only — the node
        // pipeline (and everything queued behind it) never sees the request.
        finish = arrival + RpcOverloadPolicy::kRejectCost;
      } else {
        if (h_admitted_ == kUnresolved) [[unlikely]] {
          h_admitted_ = counters_.Intern("rpc_admitted");
        }
        counters_.Increment(h_admitted_);
      }
    }
    if (admitted) {
      // Single-pipeline FIFO service: the node clock is the pipeline's
      // availability horizon. An arrival while the pipeline is busy queues
      // behind the in-flight work; an arrival while idle starts immediately.
      if (node_clock_->Now() < arrival) {
        node_clock_->AdvanceTo(arrival);
      } else {
        if (h_queued_ns_ == kUnresolved) [[unlikely]] {
          h_queued_ns_ = counters_.Intern("rpc_async_queued_ns");
        }
        counters_.Add(h_queued_ns_, node_clock_->Now() - arrival);
      }
      response = server_->Dispatch(*request, tracer_ != nullptr ? tracer_->ContextOf(serve)
                                                                : obs::TraceContext{});
      finish = std::max(node_clock_->Now(), arrival);
      if (admission_ != nullptr) {
        admission_->OnAdmitted(arrival, finish);
      }
    }
  }
  if (h_async_served_ == kUnresolved) [[unlikely]] {
    h_async_served_ = counters_.Intern("rpc_async_served");
  }
  counters_.Increment(h_async_served_);
  if (tracer_ != nullptr) {
    tracer_->End(serve, finish);
  }
  BufferChain wire = SerializeResponseFrame(response);
  const sim::Duration latency = WireLatency(wire.size(), *reply_to);
  auto reply = [wire = std::move(wire), done = std::move(done)]() mutable {
    Result<RpcResponse> response = ParseResponseFrame(wire);
    done(response.ok() ? std::move(response).value() : RpcResponse::Fail(response.status()));
  };
  static_assert(sizeof(reply) <= sim::EventFn::kInlineBytes,
                "a reply hop's closure must fit the event's inline storage");
  engine_->Post(source_, reply_to->shard_, finish + latency, std::move(reply));
}

void ShardedRpcNode::SetOverloadPolicy(const RpcOverloadPolicy& policy) {
  policy_ = policy;
  admission_ =
      policy.enabled ? std::make_unique<sim::AdmissionController>(policy.admission) : nullptr;
}

}  // namespace hyperion::dpu
