#include "perfbench/src/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/obs/export.h"

namespace perfbench {

using hyperion::obs::kSubsystemCount;
using hyperion::obs::Subsystem;

void AddCriticalPathShares(const std::vector<hyperion::obs::SpanRecord>& spans, Metrics* out) {
  const hyperion::obs::CriticalPathReport report = hyperion::obs::BuildCriticalPathReport(spans);
  double total = 0;
  for (const auto ns : report.totals) {
    total += static_cast<double>(ns);
  }
  for (size_t s = 0; s < kSubsystemCount; ++s) {
    const std::string name =
        "cp." + std::string(hyperion::obs::SubsystemName(static_cast<Subsystem>(s))) + "_pct";
    (*out)[name] = total > 0 ? 100.0 * static_cast<double>(report.totals[s]) / total : 0.0;
  }
}

uint64_t ExactPercentile(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  const size_t index = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(index), samples.end());
  return samples[index];
}

std::string ToJson(const Metrics& metrics) {
  std::string json = "{";
  for (const auto& [name, value] : metrics) {
    if (json.size() > 1) {
      json += ", ";
    }
    char number[32];
    std::snprintf(number, sizeof number, "%.17g", std::isfinite(value) ? value : 0.0);
    json += "\"" + name + "\": " + number;
  }
  return json + "}";
}

}  // namespace perfbench
