#include "src/obs/metrics.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::obs {

namespace {

// Sorted-insert comparison key; keeps every entry vector in (subsystem,
// name) order so snapshots are deterministic without a sort at export time.
bool KeyLess(Subsystem a_sub, std::string_view a_name, Subsystem b_sub, std::string_view b_name) {
  if (a_sub != b_sub) {
    return static_cast<uint8_t>(a_sub) < static_cast<uint8_t>(b_sub);
  }
  return a_name < b_name;
}

void AppendJsonKey(std::string& out, Subsystem subsystem, const std::string& name) {
  out += '"';
  out += SubsystemName(subsystem);
  out += '/';
  out += name;  // instrument names are [a-z0-9_.]: no escaping needed
  out += '"';
}

}  // namespace

template <typename T>
T* MetricsRegistry::Intern(std::vector<Entry<T>>& entries, Subsystem subsystem,
                           std::string_view name) {
  auto it = std::lower_bound(entries.begin(), entries.end(), name,
                             [subsystem](const Entry<T>& e, std::string_view key) {
                               return KeyLess(e.subsystem, e.name, subsystem, key);
                             });
  if (it != entries.end() && it->subsystem == subsystem && it->name == name) {
    return it->value.get();
  }
  it = entries.insert(it, Entry<T>{subsystem, std::string(name), std::make_unique<T>()});
  return it->value.get();
}

template <typename T>
const T* MetricsRegistry::Lookup(const std::vector<Entry<T>>& entries, Subsystem subsystem,
                                 std::string_view name) {
  auto it = std::lower_bound(entries.begin(), entries.end(), name,
                             [subsystem](const Entry<T>& e, std::string_view key) {
                               return KeyLess(e.subsystem, e.name, subsystem, key);
                             });
  if (it != entries.end() && it->subsystem == subsystem && it->name == name) {
    return it->value.get();
  }
  return nullptr;
}

MetricsRegistry::Counter* MetricsRegistry::RegisterCounter(Subsystem subsystem,
                                                           std::string_view name) {
  return Intern(counters_, subsystem, name);
}

MetricsRegistry::Gauge* MetricsRegistry::RegisterGauge(Subsystem subsystem,
                                                       std::string_view name) {
  return Intern(gauges_, subsystem, name);
}

sim::Histogram* MetricsRegistry::RegisterHistogram(Subsystem subsystem, std::string_view name) {
  return Intern(histograms_, subsystem, name);
}

uint64_t MetricsRegistry::CounterValue(Subsystem subsystem, std::string_view name) const {
  const Counter* counter = Lookup(counters_, subsystem, name);
  return counter == nullptr ? 0 : counter->value();
}

int64_t MetricsRegistry::GaugeValue(Subsystem subsystem, std::string_view name) const {
  const Gauge* gauge = Lookup(gauges_, subsystem, name);
  return gauge == nullptr ? 0 : gauge->value();
}

const sim::Histogram* MetricsRegistry::FindHistogram(Subsystem subsystem,
                                                     std::string_view name) const {
  return Lookup(histograms_, subsystem, name);
}

void MetricsRegistry::ImportCounters(Subsystem subsystem, const sim::Counters& counters) {
  for (const auto& [name, value] : counters.Snapshot()) {
    RegisterCounter(subsystem, name)->Add(value);
  }
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& entry : other.counters_) {
    RegisterCounter(entry.subsystem, entry.name)->Add(entry.value->value());
  }
  for (const auto& entry : other.gauges_) {
    RegisterGauge(entry.subsystem, entry.name)->Set(entry.value->value());
  }
  for (const auto& entry : other.histograms_) {
    RegisterHistogram(entry.subsystem, entry.name)->Merge(*entry.value);
  }
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& entry : counters_) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonKey(out, entry.subsystem, entry.name);
    out += ':';
    out += std::to_string(entry.value->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& entry : gauges_) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonKey(out, entry.subsystem, entry.name);
    out += ':';
    out += std::to_string(entry.value->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& entry : histograms_) {
    if (!first) {
      out += ',';
    }
    first = false;
    const sim::Histogram& h = *entry.value;
    AppendJsonKey(out, entry.subsystem, entry.name);
    out += ":{\"count\":" + std::to_string(h.count());
    out += ",\"min\":" + std::to_string(h.min());
    out += ",\"max\":" + std::to_string(h.max());
    out += ",\"p50\":" + std::to_string(h.P50());
    out += ",\"p99\":" + std::to_string(h.P99());
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace hyperion::obs
