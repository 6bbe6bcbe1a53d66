// Measurement plumbing: log-bucketed latency histograms and counters.
//
// Histogram is HdrHistogram-flavoured: values are bucketed with bounded
// relative error (~3%), so p50/p99/p999 queries are cheap and the memory
// footprint is constant regardless of sample count.

#ifndef HYPERION_SRC_SIM_STATS_H_
#define HYPERION_SRC_SIM_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hyperion::sim {

class Histogram {
 public:
  Histogram() = default;

  void Record(uint64_t value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }

  // Quantile in [0, 1]; returns an upper bound of the bucket containing it.
  uint64_t Percentile(double q) const;
  uint64_t P50() const { return Percentile(0.50); }
  uint64_t P90() const { return Percentile(0.90); }
  uint64_t P99() const { return Percentile(0.99); }
  uint64_t P999() const { return Percentile(0.999); }

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets => ~3% error
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

// Named monotonic counters, used for hop/byte/op accounting in experiments.
class Counters {
 public:
  // Interned counter slot: resolve the name once at setup, then bump by
  // index with no per-event string compares (the by-name Add below scans
  // the linear map on every call, which showed up in the per-request RPC
  // and NVMe paths).
  using Handle = uint32_t;
  Handle Intern(const std::string& name);

  void Add(Handle handle, uint64_t delta) { entries_[handle].second += delta; }
  void Increment(Handle handle) { Add(handle, 1); }

  void Add(const std::string& name, uint64_t delta);
  void Increment(const std::string& name) { Add(name, 1); }
  uint64_t Get(const std::string& name) const;

  // Stable (sorted) name/value listing for reports.
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;

 private:
  std::vector<std::pair<std::string, uint64_t>> entries_;  // small-N linear map
};

}  // namespace hyperion::sim

#endif  // HYPERION_SRC_SIM_STATS_H_
