#include "src/net/transport.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::net {

std::string_view TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kUdp:
      return "udp";
    case TransportKind::kTcp:
      return "tcp";
    case TransportKind::kRdma:
      return "rdma";
    case TransportKind::kHoma:
      return "homa";
  }
  return "?";
}

namespace {

// Per-message wire overhead (headers) by transport kind, bytes.
uint32_t HeaderBytes(TransportKind kind) {
  switch (kind) {
    case TransportKind::kUdp:
      return 42;  // eth + ipv4 + udp
    case TransportKind::kTcp:
      return 54;  // eth + ipv4 + tcp
    case TransportKind::kRdma:
      return 58;  // eth + ip + udp + ib bth (RoCEv2)
    case TransportKind::kHoma:
      return 60;  // eth + ipv4 + homa data header
  }
  return 0;
}

class UdpTransport : public Transport {
 public:
  UdpTransport(Fabric* fabric, Rng* rng, TransportParams params) : Transport(fabric, rng, params) {}
  TransportKind kind() const override { return TransportKind::kUdp; }

  Result<sim::Duration> Send(HostId src, HostId dst, uint64_t bytes) override {
    fabric_->engine()->Advance(params_.sender_sw_overhead);
    if (rng_->Bernoulli(params_.loss_probability) || InjectFault(sim::FaultSite::kNetLoss)) {
      // The datagram evaporates; the sender has already paid its software
      // cost. UDP gives no feedback, so the model surfaces loss directly.
      fabric_->Deliver(src, dst, 0).status();  // still occupies the wire path
      return Unavailable("datagram lost");
    }
    if (InjectFault(sim::FaultSite::kNetCorrupt)) {
      // Delivered, but the receiver's checksum rejects it: the full wire
      // cost is paid and the payload is discarded.
      RETURN_IF_ERROR(fabric_->Deliver(src, dst, bytes + HeaderBytes(kind())).status());
      return Unavailable("datagram corrupted");
    }
    ASSIGN_OR_RETURN(sim::Duration wire,
                     fabric_->Deliver(src, dst, bytes + HeaderBytes(kind())));
    fabric_->engine()->Advance(params_.receiver_sw_overhead);
    return wire + params_.sender_sw_overhead + params_.receiver_sw_overhead;
  }
};

class TcpTransport : public Transport {
 public:
  TcpTransport(Fabric* fabric, Rng* rng, TransportParams params) : Transport(fabric, rng, params) {}
  TransportKind kind() const override { return TransportKind::kTcp; }

  Result<sim::Duration> Send(HostId src, HostId dst, uint64_t bytes) override {
    sim::Duration total = params_.sender_sw_overhead + params_.receiver_sw_overhead;
    fabric_->engine()->Advance(params_.sender_sw_overhead);
    // Reliable delivery: retransmit on loss after an RTO. Fast-retransmit
    // keeps the penalty near one RTT for the common case.
    ASSIGN_OR_RETURN(sim::Duration rtt, fabric_->Rtt(src, dst));
    const sim::Duration rto = std::max<sim::Duration>(3 * rtt, 200 * sim::kMicrosecond);
    for (int attempt = 0; attempt < 64; ++attempt) {
      // Injected wire loss and checksum corruption both cost a
      // retransmission round — TCP absorbs them identically.
      const bool delivered = !rng_->Bernoulli(params_.loss_probability) &&
                             !InjectFault(sim::FaultSite::kNetLoss) &&
                             !InjectFault(sim::FaultSite::kNetCorrupt);
      if (delivered) {
        ASSIGN_OR_RETURN(sim::Duration wire,
                         fabric_->Deliver(src, dst, bytes + HeaderBytes(kind())));
        // Delayed-ACK-free model: the ACK rides back immediately.
        ASSIGN_OR_RETURN(sim::Duration ack, fabric_->Deliver(dst, src, HeaderBytes(kind())));
        fabric_->engine()->Advance(params_.receiver_sw_overhead);
        return total + wire + ack;
      }
      fabric_->engine()->Advance(rto);
      total += rto;
    }
    return DeadlineExceeded("tcp retransmission limit");
  }
};

class RdmaTransport : public Transport {
 public:
  RdmaTransport(Fabric* fabric, Rng* rng, TransportParams params)
      : Transport(fabric, rng, params) {
    // RoCE assumes PFC-lossless fabric; configuring loss is a setup bug.
    CHECK_EQ(params_.loss_probability, 0.0) << "RDMA transport requires a lossless fabric";
  }
  TransportKind kind() const override { return TransportKind::kRdma; }

  Result<sim::Duration> Send(HostId src, HostId dst, uint64_t bytes) override {
    // Kernel-bypass: software overhead is whatever the caller configured
    // (typically ~0 for hardware verbs).
    fabric_->engine()->Advance(params_.sender_sw_overhead);
    ASSIGN_OR_RETURN(sim::Duration wire,
                     fabric_->Deliver(src, dst, bytes + HeaderBytes(kind())));
    fabric_->engine()->Advance(params_.receiver_sw_overhead);
    return wire + params_.sender_sw_overhead + params_.receiver_sw_overhead;
  }
};

class HomaTransport : public Transport {
 public:
  HomaTransport(Fabric* fabric, Rng* rng, TransportParams params) : Transport(fabric, rng, params) {}
  TransportKind kind() const override { return TransportKind::kHoma; }

  Result<sim::Duration> Send(HostId src, HostId dst, uint64_t bytes) override {
    const sim::Duration sw = params_.sender_sw_overhead + params_.receiver_sw_overhead;
    fabric_->engine()->Advance(sw);
    ASSIGN_OR_RETURN(sim::Duration wire,
                     fabric_->Deliver(src, dst, bytes + HeaderBytes(kind())));
    sim::Duration grant_cost = 0;
    if (bytes > params_.homa_unscheduled_bytes) {
      // Bytes beyond the unscheduled window wait one RTT for the first grant;
      // grants then pipeline with the data.
      ASSIGN_OR_RETURN(sim::Duration rtt, fabric_->Rtt(src, dst));
      grant_cost = rtt;
    }
    // SRPT priority queues: short messages bypass queue buildup, long ones
    // absorb it. The M/G/1-flavoured term grows as load -> 1.
    sim::Duration queueing = 0;
    if (params_.homa_load > 0.0) {
      const double rho = std::min(params_.homa_load, 0.95);
      const double size_rank = bytes <= params_.homa_unscheduled_bytes ? 0.1 : 1.0;
      queueing = static_cast<sim::Duration>(rho / (1.0 - rho) * size_rank *
                                            static_cast<double>(5 * sim::kMicrosecond));
    }
    fabric_->engine()->Advance(grant_cost + queueing);
    return wire + sw + grant_cost + queueing;
  }
};

}  // namespace

std::unique_ptr<Transport> MakeTransport(TransportKind kind, Fabric* fabric, Rng* rng,
                                         TransportParams params) {
  switch (kind) {
    case TransportKind::kUdp:
      return std::make_unique<UdpTransport>(fabric, rng, params);
    case TransportKind::kTcp:
      return std::make_unique<TcpTransport>(fabric, rng, params);
    case TransportKind::kRdma:
      return std::make_unique<RdmaTransport>(fabric, rng, params);
    case TransportKind::kHoma:
      return std::make_unique<HomaTransport>(fabric, rng, params);
  }
  return nullptr;
}

}  // namespace hyperion::net
