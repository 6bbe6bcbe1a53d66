// Application-defined network transports (paper §2: "an application-defined
// network transport (TCP, UDP, RDMA, HOMA)").
//
// Hyperion's point is that the transport is *part of the offloaded
// pipeline*: a workload picks the semantics it needs and the fabric
// specializes for it. The four transports here share a Fabric but differ in
// per-message software/protocol costs, reliability behaviour under loss,
// and (for Homa) message-size-dependent scheduling. A transport carries
// one-way messages; request/response exchanges, and retries over a lossy
// transport, belong to the RPC layer above it (`dpu::RpcClient`).
//
//   Udp  — fire-and-forget datagrams; loss surfaces to the caller.
//   Tcp  — reliable byte stream; pays header+ACK costs and retransmission
//          timeouts under loss.
//   Rdma — one-sided verbs; near-zero software overhead, requires a
//          lossless fabric (loss injection is a CHECK-fail by design).
//   Homa — receiver-driven, SRPT-favouring; short messages dodge the
//          queueing that builds at high load.

#ifndef HYPERION_SRC_NET_TRANSPORT_H_
#define HYPERION_SRC_NET_TRANSPORT_H_

#include <memory>
#include <string_view>

#include "src/common/buffer.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/obs/trace.h"
#include "src/sim/fault.h"

namespace hyperion::net {

enum class TransportKind { kUdp, kTcp, kRdma, kHoma };

std::string_view TransportKindName(TransportKind kind);

struct TransportParams {
  double loss_probability = 0.0;  // per one-way message
  // Software cost charged per message at each end (protocol processing).
  // Hardware-offloaded transports on the DPU set these near zero; a host
  // kernel stack pays microseconds.
  sim::Duration sender_sw_overhead = 0;
  sim::Duration receiver_sw_overhead = 0;
  // Homa only: fabric load in [0, 1) driving queueing at the receiver's
  // downlink.
  double homa_load = 0.0;
  // Optional deterministic fault source (see sim/fault.h), additional to
  // the probabilistic loss_probability model. kNetLoss drops a message on
  // the wire; kNetCorrupt delivers it but fails the receiver's checksum.
  // Applies to UDP (surfaces to the caller) and TCP (absorbed by
  // retransmission). RDMA is lossless by contract and Homa's reliability
  // is receiver-driven; neither consults the injector.
  sim::FaultInjector* fault_injector = nullptr;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  std::string_view Name() const { return TransportKindName(kind()); }

  // One-way message; advances the clock by the modelled latency. Unreliable
  // transports return kUnavailable when the message is lost (clock still
  // advances to the loss-detection point, which for UDP is immediate at the
  // sender model boundary).
  virtual Result<sim::Duration> Send(HostId src, HostId dst, uint64_t bytes) = 0;

  // Scatter-gather send: the frame travels as shared Buffer slices and is
  // never flattened here — the cost charged is exactly Send() of the chain's
  // total byte count, so the latency model is independent of segmentation.
  Result<sim::Duration> SendFrame(HostId src, HostId dst, const BufferChain& frame) {
    obs::ScopedSpan span(tracer_, engine(), obs::Subsystem::kNet, "net.send");
    return Send(src, dst, frame.size());
  }

  // Attaches a tracer (null detaches): SendFrame emits a net.send span
  // covering the modelled wire + software time of each frame.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // The shared virtual clock this transport charges (for callers layering
  // their own timers/backoff on top, e.g. the RPC retry loop).
  sim::Engine* engine() { return fabric_->engine(); }

 protected:
  Transport(Fabric* fabric, Rng* rng, TransportParams params)
      : fabric_(fabric), rng_(rng), params_(params) {}

  // True when the configured plan injects a fault at `site`; false (and
  // free) without an injector.
  bool InjectFault(sim::FaultSite site) {
    return params_.fault_injector != nullptr && params_.fault_injector->ShouldInject(site);
  }

  Fabric* fabric_;
  Rng* rng_;
  TransportParams params_;
  obs::Tracer* tracer_ = nullptr;
};

std::unique_ptr<Transport> MakeTransport(TransportKind kind, Fabric* fabric, Rng* rng,
                                         TransportParams params = TransportParams());

}  // namespace hyperion::net

#endif  // HYPERION_SRC_NET_TRANSPORT_H_
