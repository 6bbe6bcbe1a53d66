// The four benchmark workloads, one per cluster harness.
//
// Each workload is one small adapter function in workloads.cc that builds
// the harness options from the seed, times the public constructor and
// Run(), and folds the harness's result into flat metrics. Everything else
// in the benchmark (gates, medians, reports) sees only Execution, so a
// change to a harness API touches one adapter and no metric code.

#ifndef HYPERION_PERFBENCH_SRC_WORKLOADS_H_
#define HYPERION_PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "perfbench/src/metrics.h"
#include "src/dpu/cluster.h"
#include "src/dpu/replication.h"
#include "src/load/harness.h"
#include "src/load/xdp.h"

namespace perfbench {

enum class Workload { kNetKv, kRepKv, kLsmScan, kXdpIngress };

const std::vector<Workload>& AllWorkloads();
std::string_view WorkloadName(Workload workload);
std::optional<Workload> ParseWorkload(std::string_view name);

// How one execution lays the simulation out. Results are layout-invariant
// by the harnesses' own contract, which the replay gate checks.
struct Layout {
  uint32_t shards = 2;
  bool threads = true;
  bool trace = false;
};
inline constexpr Layout kTimedLayout{.shards = 2, .threads = true, .trace = false};
inline constexpr Layout kTracedLayout{.shards = 2, .threads = true, .trace = true};
inline constexpr Layout kReplayLayout{.shards = 1, .threads = false, .trace = true};

// The harness's own deterministic result snapshot, compared with its
// operator== by the replay gate.
using HarnessResult = std::variant<hyperion::dpu::ClusterResult, hyperion::dpu::RepClusterResult,
                                   hyperion::load::OverloadResult,
                                   hyperion::load::XdpClusterResult>;

// One timed phase: wall seconds, and CPU seconds summed over the process's
// threads. CPU time leaves out the time the host takes the CPU away, which
// on a shared VM swings wall time far more than the simulator's own work.
struct Timing {
  double wall_s = 0;
  double cpu_s = 0;
};

struct Execution {
  Workload workload = Workload::kNetKv;
  Timing setup;  // the harness constructor
  Timing run;    // the harness Run()
  HarnessResult result;
  hyperion::dpu::RepAudit audit;  // repkv only: the post-run acked-write audit
  // Operations attempted and failed (failed + rejected + deadline-missed).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Sim-clock metrics (end to end and per layer) and any extra wall-clock
  // timers the adapter took around layer calls.
  Metrics sim;
  Metrics wall;
};

// Runs `workload` once with inputs drawn from `seed`.
Execution Execute(Workload workload, uint64_t seed, const Layout& layout);

// The workload's correctness gate on one execution; empty when it passes.
std::string GateError(const Execution& execution);

// The layout-invariance gate: a replay must reproduce the harness result
// bit for bit (operator==), and for repkv the audit too. Empty when equal.
std::string ReplayError(const Execution& timed, const Execution& replay);

// Wall time to construct one node at the workload's DPU config, split
// around dpu::Hyperion's constructor, Boot() and the workload's service
// install; medians over `reps` nodes, in milliseconds.
Metrics TimeNodeConstruction(Workload workload, int reps);

}  // namespace perfbench

#endif  // HYPERION_PERFBENCH_SRC_WORKLOADS_H_
