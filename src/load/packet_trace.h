// Deterministic 2x100 GbE packet-trace generator for the XDP ingress
// pipeline (PR 8, E16).
//
// The trace is a pure function of (options, index): no state, no RNG
// stream, no wall clock. FrameAt(i) regenerates frame i's bytes and
// metadata on demand, so a billion-packet trace costs nothing to hold and
// every shard layout sees byte-identical frames — the property the E16
// determinism oracle rests on.
//
// Two phases model a realistic ingress day:
//
//   ramp    every benign flow is opened once with a SYN (hot flows first,
//           so they populate the fabric-resident heavy-hitter front map
//           before the cold tail arrives), with an SSH brute-force burst
//           from a small attacker pool interleaved at a fixed stride.
//           Ramp frames are paced at `ramp_interarrival` — connection
//           setup runs at flow-table speed, not wire speed, exactly like
//           a real ToR warm-up.
//   steady  the measurement window: frames arrive back-to-back at the
//           aggregate line rate (frame_bytes over 2x100 GbE). A fixed
//           per-myriad split sends most packets to the hot set (front-map
//           hits that never leave the fabric) and the remainder to the
//           cold tail (front-map misses that exercise the flow table).
//
// Frame layout: a 64-byte context image with the header fields at the
// fixed offsets the match/action programs load from (kOffProto etc.).
// Multi-byte fields are little-endian, matching the VM's load semantics.

#ifndef HYPERION_SRC_LOAD_PACKET_TRACE_H_
#define HYPERION_SRC_LOAD_PACKET_TRACE_H_

#include <cstdint>

#include "src/apps/packet.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/sim/time.h"

namespace hyperion::load {

struct PacketTraceOptions {
  // Distinct benign flows opened during ramp; the first `hot_flows` of
  // them form the heavy-hitter set.
  uint32_t benign_flows = 65536;
  uint32_t hot_flows = 8192;
  // SSH brute-force burst: SYNs to port 22 from a small source pool,
  // interleaved into the ramp at a fixed stride.
  uint32_t attacker_ips = 16;
  uint32_t attack_packets_per_ip = 8;
  // Measurement phase length and its hot/cold split (per ten thousand).
  uint64_t steady_packets = 1 << 18;
  uint32_t hot_per_myriad = 9800;
  // Per-myriad steady frames that tear their (cold) flow down with FIN.
  uint32_t teardown_per_myriad = 0;
  // Simulated wire size per frame (sets the line-rate packet budget).
  uint32_t frame_bytes = 512;
  // Connection-setup pacing during ramp.
  sim::Duration ramp_interarrival = 1 * sim::kMicrosecond;
  uint64_t seed = 1;
};

enum class TracePhase : uint8_t { kRamp, kSteady };

struct TraceFrameMeta {
  TracePhase phase = TracePhase::kRamp;
  bool attack = false;
  bool flow_open = false;  // first packet of a benign flow (ramp SYN)
  uint64_t flow_id = 0;    // benign flow index, or attacker pool index
  apps::Packet packet;     // parsed 5-tuple + flags, for the slow path
};

class PacketTrace {
 public:
  // Context image size handed to the eBPF stages (ctx_size at assembly).
  static constexpr uint32_t kCtxBytes = 64;
  // Field offsets inside the context image.
  static constexpr size_t kOffEthertype = 12;
  static constexpr size_t kOffProto = 23;
  static constexpr size_t kOffSrcIp = 26;
  static constexpr size_t kOffDstIp = 30;
  static constexpr size_t kOffSrcPort = 34;
  static constexpr size_t kOffDstPort = 36;
  static constexpr size_t kOffTcpFlags = 47;

  static constexpr uint16_t kVipPort = 443;
  static constexpr uint16_t kAuthPort = 22;
  static constexpr uint32_t kVipAddr = 0x0A0000FE;  // 10.0.0.254

  explicit PacketTrace(PacketTraceOptions options);

  const PacketTraceOptions& options() const { return options_; }
  uint64_t ramp_packets() const { return ramp_packets_; }
  uint64_t total_packets() const { return ramp_packets_ + options_.steady_packets; }

  // Serialization time of one frame at the aggregate line rate.
  sim::Duration FrameWireTime() const { return wire_time_; }

  // Arrival of frame i relative to trace start (monotone in i).
  sim::SimTime ArrivalOf(uint64_t i) const;
  // Arrival of the first steady-phase frame.
  sim::SimTime SteadyStart() const { return ArrivalOf(ramp_packets_); }

  // Regenerates frame i: fills `ctx` (exactly kCtxBytes) and returns its
  // metadata. Pure in (options, i).
  TraceFrameMeta FrameAt(uint64_t i, MutableByteSpan ctx) const;

  // The 5-tuple of benign flow `flow` (what FrameAt encodes).
  apps::FlowKey BenignFlowKey(uint64_t flow) const;

 private:
  TraceFrameMeta RampFrame(uint64_t i) const;
  TraceFrameMeta SteadyFrame(uint64_t i) const;

  PacketTraceOptions options_;
  uint64_t attack_packets_ = 0;
  uint64_t ramp_packets_ = 0;
  uint64_t attack_stride_ = 0;  // ramp slots between attack frames
  sim::Duration wire_time_ = 0;
  // Steady frames reduce a hash by the hot and cold flow counts.
  FastMod hot_mod_{1};
  FastMod cold_mod_{1};
};

}  // namespace hyperion::load

#endif  // HYPERION_SRC_LOAD_PACKET_TRACE_H_
