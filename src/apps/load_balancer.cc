#include "src/apps/load_balancer.h"

#include "src/common/check.h"

namespace hyperion::apps {

namespace {
constexpr uint64_t kSpillIndexId = 0x1B;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t RingHash(uint32_t ip, uint16_t port, uint32_t replica) {
  Bytes bytes;
  PutU32(bytes, ip);
  PutU16(bytes, port);
  PutU32(bytes, replica);
  return Mix64(Fnv1a64(ByteSpan(bytes.data(), bytes.size())));
}

Bytes BackendBytes(const Backend& backend) {
  Bytes out;
  PutU32(out, backend.ip);
  PutU16(out, backend.port);
  return out;
}

Backend BackendFromBytes(ByteSpan data) {
  Backend backend;
  backend.ip = GetU32(data, 0);
  backend.port = GetU16(data, 4);
  return backend;
}
}  // namespace

Result<std::unique_ptr<LoadBalancer>> LoadBalancer::Create(dpu::Hyperion* dpu,
                                                           std::vector<Backend> backends,
                                                           uint32_t resident_capacity,
                                                           uint32_t spill_buckets) {
  if (!dpu->booted()) {
    return Unavailable("boot the DPU first");
  }
  if (backends.empty()) {
    return InvalidArgument("need at least one backend");
  }
  if (resident_capacity == 0) {
    return InvalidArgument("resident capacity must be positive");
  }
  if (spill_buckets == 0) {
    return InvalidArgument("spill tier needs at least one bucket");
  }
  auto lb = std::unique_ptr<LoadBalancer>(
      new LoadBalancer(dpu, std::move(backends), resident_capacity));
  for (size_t b = 0; b < lb->backends_.size(); ++b) {
    for (uint32_t v = 0; v < kVirtualNodes; ++v) {
      lb->ring_[RingHash(lb->backends_[b].ip, lb->backends_[b].port, v)] = b;
    }
  }
  // Spill tier: value = 6-byte backend; fixed 13-byte FlowKey keys.
  ASSIGN_OR_RETURN(storage::HashIndex spill,
                   storage::HashIndex::Create(&dpu->store(), kSpillIndexId, spill_buckets));
  lb->spill_ = std::make_unique<storage::HashIndex>(std::move(spill));
  return lb;
}

Backend LoadBalancer::PickByConsistentHash(const FlowKey& key) const {
  CHECK(!ring_.empty());
  auto it = ring_.lower_bound(Mix64(key.Hash()));
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap
  }
  return backends_[it->second];
}

Status LoadBalancer::SpillOne() {
  CHECK(!lru_.empty());
  const FlowKey victim = lru_.back();
  auto it = resident_.find(victim);
  CHECK(it != resident_.end());
  Bytes value = BackendBytes(it->second.backend);
  RETURN_IF_ERROR(spill_->Put(victim.Serialize(), ByteSpan(value.data(), value.size())));
  lru_.pop_back();
  resident_.erase(it);
  ++stats_.spills;
  return Status::Ok();
}

Status LoadBalancer::InsertResident(const FlowKey& key, const Backend& backend) {
  while (resident_.size() >= resident_capacity_) {
    RETURN_IF_ERROR(SpillOne());
  }
  lru_.push_front(key);
  resident_[key] = ResidentEntry{backend, lru_.begin()};
  return Status::Ok();
}

Result<Backend> LoadBalancer::Route(const Packet& packet) {
  ++stats_.packets;
  const FlowKey& key = packet.flow;
  const bool teardown = (packet.tcp_flags & (kTcpFin | kTcpRst)) != 0;

  auto it = resident_.find(key);
  if (it != resident_.end()) {
    ++stats_.resident_hits;
    const Backend backend = it->second.backend;
    // LRU touch.
    lru_.erase(it->second.lru_pos);
    if (teardown) {
      resident_.erase(it);
    } else {
      lru_.push_front(key);
      it->second.lru_pos = lru_.begin();
    }
    return backend;
  }

  // Flash tier probe. A pure SYN is a brand-new connection: it cannot have
  // been spilled, so skip the flash read and go straight to placement.
  const bool fresh_syn = (packet.tcp_flags & kTcpSyn) != 0 && !teardown;
  if (!fresh_syn) {
    const auto key_bytes = key.Serialize();
    Result<Bytes> spilled = spill_->Get(key_bytes);
    if (spilled.ok()) {
      ++stats_.spill_hits;
      const Backend backend = BackendFromBytes(ByteSpan(spilled->data(), spilled->size()));
      if (teardown) {
        RETURN_IF_ERROR(spill_->Delete(key_bytes));
      } else {
        // Promote back to DRAM.
        RETURN_IF_ERROR(spill_->Delete(key_bytes));
        RETURN_IF_ERROR(InsertResident(key, backend));
        ++stats_.promotions;
      }
      return backend;
    }
    if (spilled.status().code() != StatusCode::kNotFound) {
      return spilled.status();
    }
  }

  // New flow: consistent hash placement; SYN-less packets of unknown flows
  // still get a deterministic backend (ring), they just are not pinned.
  const Backend backend = PickByConsistentHash(key);
  if (!teardown) {
    ++stats_.new_flows;
    RETURN_IF_ERROR(InsertResident(key, backend));
  }
  return backend;
}

}  // namespace hyperion::apps
