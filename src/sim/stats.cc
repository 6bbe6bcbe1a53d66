#include "src/sim/stats.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"

namespace hyperion::sim {

namespace {
constexpr int kSubBucketBits = 5;
constexpr uint64_t kSubBuckets = 1ull << kSubBucketBits;
}  // namespace

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<size_t>(value);
  }
  // Exponent = position of the highest bit above the sub-bucket field.
  const int msb = 63 - std::countl_zero(value);
  const int exp = msb - kSubBucketBits;
  const uint64_t mantissa = (value >> exp) & (kSubBuckets - 1);
  return static_cast<size_t>((static_cast<uint64_t>(exp) + 1) * kSubBuckets + mantissa);
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < kSubBuckets) {
    return index;
  }
  const uint64_t exp = index / kSubBuckets - 1;
  const uint64_t mantissa = index % kSubBuckets;
  // Upper edge of the bucket: ((mantissa+1) << exp | top bit) - 1.
  return ((kSubBuckets + mantissa + 1) << exp) - 1;
}

void Histogram::Record(uint64_t value) {
  const size_t idx = BucketIndex(value);
  if (idx >= buckets_.size()) {
    buckets_.resize(idx + 1, 0);
  }
  ++buckets_[idx];
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  CHECK_GE(q, 0.0);
  CHECK_LE(q, 1.0);
  // The extremes are tracked exactly; answering them from the buckets would
  // return a bucket upper bound (q=0 of {1000, 2000} used to claim ~1023).
  if (q <= 0.0) {
    return min_;
  }
  if (q >= 1.0) {
    return max_;
  }
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

Counters::Handle Counters::Intern(const std::string& name) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == name) {
      return static_cast<Handle>(i);
    }
  }
  entries_.emplace_back(name, 0);
  return static_cast<Handle>(entries_.size() - 1);
}

void Counters::Add(const std::string& name, uint64_t delta) {
  for (auto& [k, v] : entries_) {
    if (k == name) {
      v += delta;
      return;
    }
  }
  entries_.emplace_back(name, delta);
}

uint64_t Counters::Get(const std::string& name) const {
  for (const auto& [k, v] : entries_) {
    if (k == name) {
      return v;
    }
  }
  return 0;
}

std::vector<std::pair<std::string, uint64_t>> Counters::Snapshot() const {
  auto copy = entries_;
  std::sort(copy.begin(), copy.end());
  return copy;
}

}  // namespace hyperion::sim
