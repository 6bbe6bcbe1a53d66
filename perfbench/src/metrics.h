// Report plumbing for the end-to-end benchmark program.
//
// The program prints flat name -> value maps; run.py picks the metrics that
// BENCHMARK.json declares out of them. Sim-clock values are deterministic
// for a seed, wall-clock values are host seconds.

#ifndef HYPERION_PERFBENCH_SRC_METRICS_H_
#define HYPERION_PERFBENCH_SRC_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

// Metric name -> value. Ordered, so reports print in a stable order.
using Metrics = std::map<std::string, double>;

// Adds `cp.<subsystem>_pct` for every obs::Subsystem: its share of the
// summed critical-path self time over all root spans in `spans`. Every
// share is 0 when `spans` is empty (a harness without a tracer).
void AddCriticalPathShares(const std::vector<hyperion::obs::SpanRecord>& spans, Metrics* out);

// Nearest-rank percentile of exact samples, q in [0, 1]; 0 when empty.
uint64_t ExactPercentile(std::vector<uint64_t> samples, double q);

// `{"a": 1, "b": 2.5}`, doubles printed round-trip exact.
std::string ToJson(const Metrics& metrics);

}  // namespace perfbench

#endif  // HYPERION_PERFBENCH_SRC_METRICS_H_
