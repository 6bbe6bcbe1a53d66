// Data-center network fabric model.
//
// Hosts (servers, clients, Hyperion DPUs) attach to a single-tier switch
// fabric by links of configurable bandwidth — the blueprint gives the DPU
// 2x100 GbE QSFP ports. Latency for a message is:
//
//   NIC/port processing (both ends) + switch forwarding + propagation
//   + serialization on the slower of the two attachment links
//
// calibrated to intra-rack numbers (a few microseconds RTT for small
// messages on 100 GbE). The pointer-chasing experiment (E5) is, at heart, a
// multiplication of this number by the number of dependent round trips, so
// the model keeps it explicit and sweepable.

#ifndef HYPERION_SRC_NET_FABRIC_H_
#define HYPERION_SRC_NET_FABRIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace hyperion::net {

using HostId = uint32_t;

struct FabricParams {
  sim::Duration port_latency = 300;       // NIC MAC/PHY processing, each end
  sim::Duration switch_latency = 400;     // cut-through forwarding
  sim::Duration propagation = 250;        // ~50 m of fiber, one way
  double default_link_gbps = 100.0;
};

// One-way latency for `bytes` between two hosts attached by links of the
// given speeds: pure arithmetic over the parameters, usable from any thread
// and without a Fabric instance (the sharded cluster simulation computes
// cross-shard message latencies with it). Fabric::OneWayLatency delegates
// here, so both agree byte-for-byte.
constexpr sim::Duration OneWayLatencyModel(const FabricParams& params, double src_gbps,
                                           double dst_gbps, uint64_t bytes) {
  const double gbps = src_gbps < dst_gbps ? src_gbps : dst_gbps;
  return 2 * params.port_latency + params.switch_latency + 2 * params.propagation +
         sim::TransferTime(bytes, gbps);
}

// Lower bound of any cross-host message's latency under `params`: the
// zero-byte fixed path cost. This is the conservative lookahead the
// parallel simulation layer uses for its epoch windows.
constexpr sim::Duration MinOneWayLatency(const FabricParams& params) {
  return 2 * params.port_latency + params.switch_latency + 2 * params.propagation;
}

class Fabric {
 public:
  explicit Fabric(sim::Engine* engine, FabricParams params = FabricParams())
      : engine_(engine), params_(params) {}

  HostId AddHost(std::string name, double link_gbps);
  HostId AddHost(std::string name) { return AddHost(std::move(name), params_.default_link_gbps); }

  size_t HostCount() const { return hosts_.size(); }
  const std::string& HostName(HostId id) const;

  // One-way latency for `bytes` from src to dst (pure model, no clock).
  Result<sim::Duration> OneWayLatency(HostId src, HostId dst, uint64_t bytes) const;

  // Small-message round-trip time between two hosts.
  Result<sim::Duration> Rtt(HostId a, HostId b) const;

  // Accounts a message on the clock and counters; returns its latency.
  Result<sim::Duration> Deliver(HostId src, HostId dst, uint64_t bytes);

  const FabricParams& params() const { return params_; }
  const sim::Counters& counters() const { return counters_; }
  sim::Engine* engine() { return engine_; }

 private:
  struct Host {
    std::string name;
    double link_gbps;
  };

  sim::Engine* engine_;
  FabricParams params_;
  std::vector<Host> hosts_;
  sim::Counters counters_;
};

}  // namespace hyperion::net

#endif  // HYPERION_SRC_NET_FABRIC_H_
