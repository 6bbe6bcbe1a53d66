#include "src/load/packet_trace.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace hyperion::load {

namespace {

// Aggregate attachment bandwidth: 2x100 GbE.
constexpr double kLineGbps = 200.0;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

PacketTrace::PacketTrace(PacketTraceOptions options) : options_(options) {
  CHECK_GT(options_.benign_flows, 0u);
  CHECK_GT(options_.hot_flows, 0u);
  CHECK_LE(options_.hot_flows, options_.benign_flows);
  CHECK_LE(options_.hot_per_myriad, 10000u);
  CHECK_GT(options_.frame_bytes, 0u);
  attack_packets_ = uint64_t{options_.attacker_ips} * options_.attack_packets_per_ip;
  ramp_packets_ = options_.benign_flows + attack_packets_;
  // Spread the attack burst evenly across the ramp (never the very first
  // slot: the hot set must start populating before the attackers show up).
  attack_stride_ =
      attack_packets_ > 0 ? std::max<uint64_t>(2, ramp_packets_ / (attack_packets_ + 1)) : 0;
  // Every attack frame must land inside the ramp, or flow-open indices
  // would run past benign_flows.
  CHECK(attack_packets_ == 0 || attack_stride_ * attack_packets_ <= ramp_packets_)
      << "attack burst does not fit the ramp";
  wire_time_ = std::max<sim::Duration>(
      1, sim::TransferTime(options_.frame_bytes, kLineGbps));
  hot_mod_ = FastMod(options_.hot_flows);
  cold_mod_ = FastMod(std::max<uint64_t>(1, options_.benign_flows - options_.hot_flows));
}

sim::SimTime PacketTrace::ArrivalOf(uint64_t i) const {
  CHECK_LE(i, total_packets());
  const sim::Duration ramp_gap = std::max<sim::Duration>(options_.ramp_interarrival, wire_time_);
  if (i <= ramp_packets_) {
    return i * ramp_gap;
  }
  return ramp_packets_ * ramp_gap + (i - ramp_packets_) * wire_time_;
}

apps::FlowKey PacketTrace::BenignFlowKey(uint64_t flow) const {
  apps::FlowKey key;
  // 4096 source ports per source address: distinct tuples for up to 2^24
  // flows without leaving the 11.0.0.0/8 test range.
  key.src_ip = 0x0B000000u + static_cast<uint32_t>(flow >> 12);
  key.src_port = static_cast<uint16_t>(1024 + (flow & 0xFFF));
  key.dst_ip = kVipAddr;
  key.dst_port = kVipPort;
  key.protocol = 6;
  return key;
}

TraceFrameMeta PacketTrace::RampFrame(uint64_t i) const {
  TraceFrameMeta meta;
  meta.phase = TracePhase::kRamp;
  // Attack slots at the fixed stride, until the burst budget is spent.
  const uint64_t attack_no = attack_stride_ > 0 ? i / attack_stride_ : 0;
  const bool attack_slot =
      attack_stride_ > 0 && i % attack_stride_ == attack_stride_ - 1 && attack_no < attack_packets_;
  if (attack_slot) {
    meta.attack = true;
    meta.flow_id = attack_no % options_.attacker_ips;
    meta.packet.flow.src_ip = 0xC0A80000u + static_cast<uint32_t>(meta.flow_id);  // 192.168/16
    meta.packet.flow.src_port = static_cast<uint16_t>(40000 + attack_no / options_.attacker_ips);
    meta.packet.flow.dst_ip = kVipAddr;
    meta.packet.flow.dst_port = kAuthPort;
    meta.packet.tcp_flags = apps::kTcpSyn;
    return meta;
  }
  // Benign flow opens, hot flows first; subtract the attack slots that
  // preceded this one.
  const uint64_t attacks_before = attack_stride_ > 0
                                      ? std::min(attack_packets_, i / attack_stride_ +
                                                                      (i % attack_stride_ ==
                                                                               attack_stride_ - 1
                                                                           ? 1
                                                                           : 0))
                                      : 0;
  meta.flow_open = true;
  meta.flow_id = i - attacks_before;
  CHECK_LT(meta.flow_id, options_.benign_flows);
  meta.packet.flow = BenignFlowKey(meta.flow_id);
  meta.packet.tcp_flags = apps::kTcpSyn;
  return meta;
}

TraceFrameMeta PacketTrace::SteadyFrame(uint64_t i) const {
  TraceFrameMeta meta;
  meta.phase = TracePhase::kSteady;
  const uint64_t r = Mix64(options_.seed ^ (0x5EEDull + i));
  const uint32_t myriad = static_cast<uint32_t>(r % 10000);
  const uint64_t pick = Mix64(r);
  if (myriad < options_.hot_per_myriad) {
    meta.flow_id = hot_mod_(pick);
  } else {
    const uint64_t cold = options_.benign_flows - options_.hot_flows;
    meta.flow_id = cold > 0 ? options_.hot_flows + cold_mod_(pick) : hot_mod_(pick);
  }
  meta.packet.flow = BenignFlowKey(meta.flow_id);
  meta.packet.tcp_flags = apps::kTcpAck;
  // Teardowns come from the cold tail only: hot flows must stay pinned in
  // the front map for the duration of the measurement window.
  if (myriad >= options_.hot_per_myriad &&
      myriad < options_.hot_per_myriad + options_.teardown_per_myriad) {
    meta.packet.tcp_flags = apps::kTcpFin | apps::kTcpAck;
  }
  meta.packet.payload_bytes = options_.frame_bytes;
  return meta;
}

TraceFrameMeta PacketTrace::FrameAt(uint64_t i, MutableByteSpan ctx) const {
  CHECK_LT(i, total_packets());
  CHECK_EQ(ctx.size(), size_t{kCtxBytes});
  const TraceFrameMeta meta = i < ramp_packets_ ? RampFrame(i) : SteadyFrame(i - ramp_packets_);
  std::memset(ctx.data(), 0, ctx.size());
  SetU16(ctx, kOffEthertype, 0x0800);
  ctx[kOffProto] = meta.packet.flow.protocol;
  SetU32(ctx, kOffSrcIp, meta.packet.flow.src_ip);
  SetU32(ctx, kOffDstIp, meta.packet.flow.dst_ip);
  SetU16(ctx, kOffSrcPort, meta.packet.flow.src_port);
  SetU16(ctx, kOffDstPort, meta.packet.flow.dst_port);
  ctx[kOffTcpFlags] = meta.packet.tcp_flags;
  return meta;
}

}  // namespace hyperion::load
