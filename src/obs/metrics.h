// Per-subsystem metrics registry (PR 4).
//
// MetricsRegistry holds named counters, gauges, and histograms, each tagged
// with the obs::Subsystem it belongs to. It is the pull side of the
// observability layer: instrumented components either write through handles
// (counter/gauge/histogram lookups are interned once, then O(1) on the hot
// path) or are harvested at snapshot time by importer helpers
// (ImportEngineStats, ImportCounters) that copy the stack's existing
// counters — sim::EngineStats, ParallelEngineStats, sim::Counters — into
// the registry without those layers ever depending on obs.
//
// Snapshots are deterministic: entries are kept in sorted (subsystem, name)
// order, and ToJson() emits them in that order, so two registries built by
// bit-identical runs serialize to byte-identical JSON. Merge() adds
// counters, takes the latest gauge write, and delegates histogram merging
// to sim::Histogram::Merge (exact bucket-wise addition) — merging per-shard
// registries equals the single-registry ground truth, which obs_test pins
// as a property test.

#ifndef HYPERION_SRC_OBS_METRICS_H_
#define HYPERION_SRC_OBS_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/stats.h"

namespace hyperion::obs {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Interned handles: stable for the registry's lifetime. Re-registering
  // the same (subsystem, name) returns the existing instrument.
  class Counter {
   public:
    void Add(uint64_t delta) { value_ += delta; }
    void Increment() { ++value_; }
    uint64_t value() const { return value_; }

   private:
    friend class MetricsRegistry;
    uint64_t value_ = 0;
  };

  class Gauge {
   public:
    void Set(int64_t value) { value_ = value; }
    void Add(int64_t delta) { value_ += delta; }
    int64_t value() const { return value_; }

   private:
    friend class MetricsRegistry;
    int64_t value_ = 0;
  };

  Counter* RegisterCounter(Subsystem subsystem, std::string_view name);
  Gauge* RegisterGauge(Subsystem subsystem, std::string_view name);
  sim::Histogram* RegisterHistogram(Subsystem subsystem, std::string_view name);

  // Convenience for sites that touch a counter rarely enough that interning
  // a handle isn't worth the wiring.
  void Add(Subsystem subsystem, std::string_view name, uint64_t delta) {
    RegisterCounter(subsystem, name)->Add(delta);
  }
  void SetGauge(Subsystem subsystem, std::string_view name, int64_t value) {
    RegisterGauge(subsystem, name)->Set(value);
  }
  void Record(Subsystem subsystem, std::string_view name, uint64_t value) {
    RegisterHistogram(subsystem, name)->Record(value);
  }

  uint64_t CounterValue(Subsystem subsystem, std::string_view name) const;
  int64_t GaugeValue(Subsystem subsystem, std::string_view name) const;
  const sim::Histogram* FindHistogram(Subsystem subsystem, std::string_view name) const;

  // Bulk import of a sim::Counters bag (RPC endpoints, transports keep one)
  // under the given subsystem. Adds into existing counters of the same name.
  void ImportCounters(Subsystem subsystem, const sim::Counters& counters);

  // Merges `other` into this registry: counters add, gauges take the other
  // registry's value (latest-writer wins, matching what a single registry
  // would hold), histograms bucket-merge.
  void Merge(const MetricsRegistry& other);

  // Deterministic JSON document:
  //   {"counters": {"nvme/retries": 3, ...},
  //    "gauges":   {"fpga/slots_free": 2, ...},
  //    "histograms": {"rpc/latency_ns": {"count":..,"min":..,"max":..,
  //                                      "p50":..,"p99":..}, ...}}
  // Keys are "<subsystem>/<name>", emitted in sorted order.
  std::string ToJson() const;

  size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }

 private:
  template <typename T>
  struct Entry {
    Subsystem subsystem;
    std::string name;
    // unique_ptr keeps handle pointers stable across vector growth.
    std::unique_ptr<T> value;
  };

  template <typename T>
  static T* Intern(std::vector<Entry<T>>& entries, Subsystem subsystem, std::string_view name);
  template <typename T>
  static const T* Lookup(const std::vector<Entry<T>>& entries, Subsystem subsystem,
                         std::string_view name);

  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<sim::Histogram>> histograms_;
};

}  // namespace hyperion::obs

#endif  // HYPERION_SRC_OBS_METRICS_H_
