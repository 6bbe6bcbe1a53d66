// Stateful L4 load balancer with flash spill (paper §2.4, citing Tiara
// [169]: FPGA load balancers have flow-proportional state that outgrows
// on-chip memory; Tiara spills it to x86 servers — Hyperion spills to its
// own attached SSDs).
//
// New flows are placed by consistent hashing over the backend ring;
// established flows are pinned by a flow table. The table's hot part lives
// in the DPU DRAM tier with a bounded capacity; on overflow the LRU entry
// spills to a durable hash index on flash, from which it is promoted back
// on access. This keeps *every* established flow sticky, at flash (not
// remote-server) cost for the cold tail.

#ifndef HYPERION_SRC_APPS_LOAD_BALANCER_H_
#define HYPERION_SRC_APPS_LOAD_BALANCER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/apps/packet.h"
#include "src/common/result.h"
#include "src/dpu/hyperion.h"
#include "src/storage/hash_index.h"

namespace hyperion::apps {

struct Backend {
  uint32_t ip = 0;
  uint16_t port = 0;

  friend bool operator==(const Backend&, const Backend&) = default;
};

struct LoadBalancerStats {
  uint64_t packets = 0;
  uint64_t new_flows = 0;
  uint64_t resident_hits = 0;
  uint64_t spills = 0;
  uint64_t spill_hits = 0;   // served from the flash tier
  uint64_t promotions = 0;
};

class LoadBalancer {
 public:
  // `resident_capacity` bounds the DRAM-tier flow table. `spill_buckets`
  // sizes the flash tier's fixed hash directory: leave the default for
  // middleware-scale tests, raise it when the spill tier must absorb
  // millions of flows without deep overflow chains (the PR 8 ingress
  // pipeline passes ~2 * expected_flows / 100).
  static Result<std::unique_ptr<LoadBalancer>> Create(dpu::Hyperion* dpu,
                                                      std::vector<Backend> backends,
                                                      uint32_t resident_capacity,
                                                      uint32_t spill_buckets = 256);

  // Routes one packet; FIN/RST tear the flow state down.
  Result<Backend> Route(const Packet& packet);

  const LoadBalancerStats& stats() const { return stats_; }
  size_t ResidentFlows() const { return resident_.size(); }
  // Flash-tier directory health (chain depth, occupancy).
  const storage::HashIndex& spill() const { return *spill_; }

 private:
  LoadBalancer(dpu::Hyperion* dpu, std::vector<Backend> backends, uint32_t resident_capacity)
      : dpu_(dpu), backends_(std::move(backends)), resident_capacity_(resident_capacity) {}

  Backend PickByConsistentHash(const FlowKey& key) const;
  Status InsertResident(const FlowKey& key, const Backend& backend);
  Status SpillOne();

  dpu::Hyperion* dpu_;
  std::vector<Backend> backends_;
  uint32_t resident_capacity_;

  // Consistent-hash ring: point -> backend index (kVirtualNodes per backend).
  static constexpr uint32_t kVirtualNodes = 256;
  std::map<uint64_t, size_t> ring_;

  // Resident flow table with LRU order.
  struct ResidentEntry {
    Backend backend;
    std::list<FlowKey>::iterator lru_pos;
  };
  std::unordered_map<FlowKey, ResidentEntry> resident_;
  std::list<FlowKey> lru_;  // front = most recent

  std::unique_ptr<storage::HashIndex> spill_;  // durable flash tier
  LoadBalancerStats stats_;
};

}  // namespace hyperion::apps

#endif  // HYPERION_SRC_APPS_LOAD_BALANCER_H_
