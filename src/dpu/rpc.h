// Willow-style flexible RPC (paper §2.4, citing Willow [146]).
//
// Willow's insight — which Hyperion adopts for its mixed-workload client
// interface — is that a programmable storage device should expose an RPC
// fabric rather than a fixed command set: services (KV, tree, shared log,
// control) register handlers, and the interface can be specialized
// end-to-end with the network transport underneath. Requests and responses
// are length-delimited byte payloads; the client side charges the chosen
// transport for both directions, so every experiment sees real wire costs.

#ifndef HYPERION_SRC_DPU_RPC_H_
#define HYPERION_SRC_DPU_RPC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/common/buffer.h"
#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/net/transport.h"
#include "src/obs/trace.h"
#include "src/sim/fault.h"
#include "src/sim/flow.h"
#include "src/sim/parallel.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace hyperion::dpu {

enum class ServiceId : uint16_t {
  kControl = 0,  // OS-shell: bitstream load, accelerator deploy, stats
  kKv = 1,
  kTree = 2,
  kLog = 3,
  kBlock = 4,  // NVMe-oF-style block-level access to the attached SSDs
  kFile = 5,   // virtio-fs/DPFS-style remote file access (annotation-driven)
  kApp = 6,    // Willow-style user RPC: opcode = accelerator id, payload = ctx
  kRepKv = 7,  // replicated KV: Corfu chain replication + epoch/seal failover
  kLsmKv = 8,  // LSM engine (PR 6) served as an RPC workload (KvOp opcodes)
  kScan = 9,   // analytics scan pushdown (PR 10): FPGA Parquet scan kernels
};

// Absolute virtual-time deadline meaning "no deadline".
inline constexpr sim::SimTime kNoDeadline = ~0ull;

// Payloads are ref-counted Buffers: building a request around an existing
// value, dispatching it, and returning a response shares the backing bytes
// instead of copying them at every layer.
struct RpcRequest {
  ServiceId service = ServiceId::kControl;
  uint16_t opcode = 0;
  Buffer payload;
  // Absolute virtual-time deadline (kNoDeadline = none), so deadline-aware
  // servers can shed work that cannot finish in time. CallWithDeadline
  // fills it in; plain Call leaves it off. On the wire it rides a trailer.
  sim::SimTime deadline = kNoDeadline;
  // The caller's span, read off a request frame's trace trailer (empty when
  // the frame carries none). Metadata like `deadline`.
  obs::TraceContext trace{};
};

struct RpcResponse {
  Status status;
  Buffer payload;

  static RpcResponse Ok(Buffer payload = {}) {
    return RpcResponse{Status::Ok(), std::move(payload)};
  }
  static RpcResponse Fail(Status status) { return RpcResponse{std::move(status), {}}; }
};

// Wire codecs, one per frame kind. Little-endian layouts:
//   request:  [service u16][opcode u16][len u32][payload][trailers...]
//   response: [code u32][msg_len u32][msg][len u32][payload]
// A frame is [header segment][payload segments...]: the payload rides as
// shared Buffer slices, so neither serialize nor parse copies it. The
// parsers read through a ChainReader, so a frame parses the same however
// its bytes are split into segments; only a field that straddles segments
// is copied. A length that overruns the frame fails with kDataLoss.
BufferChain SerializeRequestFrame(const RpcRequest& request);
Result<RpcRequest> ParseRequestFrame(const BufferChain& frame);
BufferChain SerializeResponseFrame(const RpcResponse& response);
Result<RpcResponse> ParseResponseFrame(const BufferChain& frame);

// Metadata trailers appended *after* a request frame's header+payload.
// Two kinds exist and may come in either order, each led by its magic:
//   trace:    [magic "TRC1" u32][trace_id u64][parent_span u64]
//   deadline: [magic "DLN1" u32][deadline u64]
// ParseRequestFrame walks them into RpcRequest::trace and ::deadline; an
// unknown magic or a short block ends the walk, and the fields parsed
// before it stand. Senders compute the modelled wire latency from the
// pre-trailer size, so trailers never perturb virtual time.
void AppendTraceTrailer(BufferChain& frame, obs::TraceContext context);
void AppendDeadlineTrailer(BufferChain& frame, sim::SimTime deadline);

// Server-side dispatch table. Handlers run on the DPU and advance the
// shared virtual clock by whatever work they do.
class RpcServer {
 public:
  using Handler = std::function<RpcResponse(uint16_t opcode, const Buffer& payload)>;

  void RegisterService(ServiceId service, Handler handler);

  // Runs the service's handler inside an "rpc.dispatch" span parented at
  // `context` (the caller's attempt or serve span), read off `clock` — the
  // engine the handlers advance. Untraced without SetTracer.
  RpcResponse Dispatch(const RpcRequest& request, obs::TraceContext context);

  // Attaches the per-node tracer (null detaches). `clock` is the virtual
  // clock dispatched work advances.
  void SetTracer(obs::Tracer* tracer, sim::Engine* clock) {
    tracer_ = tracer;
    clock_ = clock;
  }

  const sim::Counters& counters() const { return counters_; }

 private:
  std::map<ServiceId, Handler> handlers_;
  sim::Counters counters_;
  obs::Tracer* tracer_ = nullptr;
  sim::Engine* clock_ = nullptr;
};

// Retry policy for client calls: transient failures (lost or corrupted
// messages, dropped responses) are reissued after an exponential backoff.
// The default is a single attempt — fail fast, exactly the pre-fault-
// injection behaviour.
struct RetryPolicy {
  uint32_t max_attempts = 1;  // total attempts, including the first
  sim::Duration initial_backoff = 50 * sim::kMicrosecond;
  double backoff_multiplier = 2.0;
  sim::Duration max_backoff = 10 * sim::kMillisecond;
};

// Client stub: serializes, pays the transport both ways, and invokes the
// server's dispatch at the far end. Recovery: transient transport errors
// retry with exponential backoff under the configured policy; a deadline
// bounds the whole call — the remaining budget is rechecked at every hop
// boundary (before each attempt, before each backoff sleep) and truncates
// the sleep, so a call can never outlive its deadline and never hangs.
class RpcClient {
 public:
  RpcClient(net::Transport* transport, net::HostId self, net::HostId server, RpcServer* peer)
      : transport_(transport), self_(self), server_(server), peer_(peer) {}

  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }

  // Hooks this client to a fault injector (null detaches). Injected fault:
  // the server executes but its response is dropped — the at-least-once
  // hazard every retry layer must tolerate.
  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  // Attaches a tracer (null detaches): calls emit rpc.call/rpc.attempt/
  // rpc.backoff spans on the transport's clock, and the attempt context
  // propagates into the server's rpc.dispatch span.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Calls under the configured retry policy with no deadline.
  Result<RpcResponse> Call(const RpcRequest& request);

  // Deadline-aware call: kDeadlineExceeded once the virtual clock passes
  // `deadline` (absolute virtual time).
  Result<RpcResponse> CallWithDeadline(const RpcRequest& request, sim::SimTime deadline);

  // Retry/recovery accounting: rpc_attempts, rpc_retries, rpc_backoff_ns,
  // rpc_recoveries, rpc_retries_exhausted, rpc_deadline_exceeded; plus
  // copy_bytes — bytes physically memcpy'd through the buffer layer across
  // this client's attempts (serialize, dispatch, parse), the per-request
  // copy metric bench_fig2_datapath reports.
  const sim::Counters& counters() const { return counters_; }

 private:
  // One wire exchange, no retry.
  Result<RpcResponse> Attempt(const RpcRequest& request);
  // The retry loop, running inside CallWithDeadline's rpc.call span.
  Result<RpcResponse> CallLoop(const RpcRequest& request, sim::SimTime deadline);

  net::Transport* transport_;
  net::HostId self_;
  net::HostId server_;
  RpcServer* peer_;
  RetryPolicy policy_;
  sim::FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  sim::Counters counters_;
};

// -- Sharded asynchronous RPC (PR 3) -----------------------------------------
//
// In the sharded cluster simulation (sim/parallel.h) each simulated DPU
// node is homed on a ParallelEngine shard, and an RPC between nodes ships
// the *serialized frame* as a cross-shard message:
//
//   caller shard   SerializeRequestFrame -> Post at now + wire latency
//   callee shard   ParseRequestFrame -> Dispatch, serialized FIFO on the
//                  callee's private node clock (its cost engine) -> Post
//                  the response frame at finish + wire latency
//   caller shard   ParseResponseFrame -> completion callback
//
// The frame's payload crosses shards as shared Buffer slices, so the
// zero-copy datapath property of PR 2 survives sharding. Wire latency is
// the pure fabric model (net::OneWayLatencyModel) of the frame's byte
// count; its zero-byte floor is declared to the parallel engine as the
// conservative lookahead. The async path models a hardware-offloaded
// transport (RDMA-like): no retries, no software overhead, no loss.
// Overload policy for a serving node (PR 5). With `enabled`, every arrival
// passes deadline-aware bounded-queue admission *before* it is allowed to
// occupy the node's pipeline: a shed request is answered kResourceExhausted
// after only `reject_cost` of shell time — the node clock (and therefore
// the flash, fabric, and every queued request behind them) never sees it.
struct RpcOverloadPolicy {
  bool enabled = false;
  sim::AdmissionParams admission;
  // NIC/shell-level cost of the fast-reject path, charged in event time on
  // the shard engine, not on the node pipeline.
  sim::Duration reject_cost = 200;
};

class ShardedRpcNode {
 public:
  using Completion = std::function<void(RpcResponse)>;

  // Registers the node as a message source on `shard` (registration order
  // is the deterministic cross-shard tie-break — construct nodes in node-id
  // order). `server` may be null for client-only nodes. `node_clock` is the
  // node's private cost engine — the one its DPU substrates advance inline;
  // it must never hold scheduled events (it is a clock, not a queue).
  ShardedRpcNode(sim::ParallelEngine* engine, uint32_t shard, RpcServer* server,
                 sim::Engine* node_clock, const net::FabricParams& wire,
                 double link_gbps);

  uint32_t shard() const { return shard_; }

  // Asynchronous call: `done` runs on this node's shard engine when the
  // response frame arrives; a frame that fails to parse completes as
  // RpcResponse::Fail. Must be called from this node's shard (an event on
  // its engine, or setup code before ParallelEngine::Run()).
  void CallAsync(ShardedRpcNode* peer, const RpcRequest& request, Completion done);

  // One-way wire latency for `bytes` between this node and `peer`.
  sim::Duration WireLatency(uint64_t bytes, const ShardedRpcNode& peer) const;

  // Attaches the node's tracer (null detaches). Calls open an async
  // "rpc.call" span closed at response arrival; the context rides the
  // request frame as a trailer (excluded from the modelled latency), and
  // the serving node stitches its "rpc.serve" span under it even when the
  // two nodes live on different shards.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() { return tracer_; }

  // Installs (or, with enabled=false, removes) the serving-side overload
  // policy. Untouched nodes behave exactly as before PR 5.
  void SetOverloadPolicy(const RpcOverloadPolicy& policy);
  // The admission controller behind the policy (null when disabled);
  // exposes shed/admit counters and the pending-depth histogram.
  sim::AdmissionController* admission() { return admission_.get(); }

  // rpc_async_calls / rpc_async_served / rpc_async_queued_ns (time requests
  // spent queued behind the node's busy pipeline); with an overload policy
  // also rpc_admitted / rpc_shed_queue / rpc_shed_deadline.
  const sim::Counters& counters() const { return counters_; }

 private:
  // Runs on this node's shard at request-arrival time.
  void ServeFrame(BufferChain frame, ShardedRpcNode* reply_to, Completion done);

  sim::ParallelEngine* engine_;
  uint32_t shard_;
  uint32_t source_;
  RpcServer* server_;
  sim::Engine* node_clock_;
  net::FabricParams wire_;
  double link_gbps_;
  obs::Tracer* tracer_ = nullptr;
  RpcOverloadPolicy policy_;
  std::unique_ptr<sim::AdmissionController> admission_;
  sim::Counters counters_;
  // Hot-path counter slots, interned lazily at first bump so untouched
  // counters never appear in Snapshot() (keeps report output unchanged).
  static constexpr sim::Counters::Handle kUnresolved = ~sim::Counters::Handle{0};
  sim::Counters::Handle h_async_calls_ = kUnresolved;
  sim::Counters::Handle h_async_served_ = kUnresolved;
  sim::Counters::Handle h_admitted_ = kUnresolved;
  sim::Counters::Handle h_queued_ns_ = kUnresolved;
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_RPC_H_
