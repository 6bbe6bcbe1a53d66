// hyperion_perfbench: one execution of one benchmark workload per process,
// reported as a single JSON line on stdout. run.py drives it.
//
//   hyperion_perfbench provenance
//   hyperion_perfbench check  <workload> <seed>   timed layout + 1-shard replay, gated
//   hyperion_perfbench timed  <workload> <seed>   timed layout, tracing off, gated
//   hyperion_perfbench traced <workload> <seed>   timed layout, tracing on, plus node timers
//   hyperion_perfbench selftest                   the gates reject perturbed results
//
// Exit status: 0 on success, 1 when a correctness gate fails, 2 on bad
// usage, 3 when the binary is not a Release build.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "perfbench/src/metrics.h"
#include "perfbench/src/workloads.h"

namespace {

using perfbench::Execution;
using perfbench::Metrics;
using perfbench::Workload;

constexpr std::string_view kBuildType = PERFBENCH_BUILD_TYPE;

#ifdef NDEBUG
constexpr bool kAssertsCompiledOut = true;
#else
constexpr bool kAssertsCompiledOut = false;
#endif

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: hyperion_perfbench provenance | selftest |\n"
               "       hyperion_perfbench {check|timed|traced} <workload> <seed>\n");
  return 2;
}

// Prints one execution report; returns the process exit status.
int Report(std::string_view mode, const Execution& exec, uint64_t seed, std::string gate,
           const Metrics& extra_wall) {
  Metrics wall = exec.wall;
  wall["setup_s"] = exec.setup.wall_s;
  wall["run_s"] = exec.run.wall_s;
  wall["setup_cpu_s"] = exec.setup.cpu_s;
  wall["run_cpu_s"] = exec.run.cpu_s;
  wall.insert(extra_wall.begin(), extra_wall.end());
  std::printf(
      "{\"mode\": %s, \"workload\": %s, \"seed\": %llu, \"gate\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"sim\": %s, \"wall\": %s}\n",
      Quote(mode).c_str(), Quote(perfbench::WorkloadName(exec.workload)).c_str(),
      static_cast<unsigned long long>(seed), Quote(gate).c_str(),
      static_cast<unsigned long long>(exec.attempted),
      static_cast<unsigned long long>(exec.failed), perfbench::ToJson(exec.sim).c_str(),
      perfbench::ToJson(wall).c_str());
  if (!gate.empty()) {
    std::fprintf(stderr, "correctness gate failed: %s\n", gate.c_str());
    return 1;
  }
  return 0;
}

int RunMode(std::string_view mode, Workload workload, uint64_t seed) {
  if (mode == "timed") {
    const Execution exec = perfbench::Execute(workload, seed, perfbench::kTimedLayout);
    return Report(mode, exec, seed, perfbench::GateError(exec), {});
  }
  if (mode == "traced") {
    const Metrics nodes = perfbench::TimeNodeConstruction(workload, 5);
    const Execution exec = perfbench::Execute(workload, seed, perfbench::kTracedLayout);
    return Report(mode, exec, seed, perfbench::GateError(exec), nodes);
  }
  // check: the timed layout, then a 1-shard inline replay with tracing on.
  const Execution timed = perfbench::Execute(workload, seed, perfbench::kTimedLayout);
  const Execution replay = perfbench::Execute(workload, seed, perfbench::kReplayLayout);
  std::string gate = perfbench::GateError(timed);
  if (gate.empty()) {
    gate = perfbench::GateError(replay);
  }
  if (gate.empty()) {
    gate = perfbench::ReplayError(timed, replay);
  }
  // Sim metrics are the timed layout's; the replay adds what only a traced
  // run can see (the ingress batch latencies).
  Execution merged = timed;
  merged.sim.insert(replay.sim.begin(), replay.sim.end());
  return Report(mode, merged, seed, gate, {});
}

// Feeds each gate a passing synthetic result, then perturbed copies, and
// checks the gate tells them apart.
int SelfTest() {
  namespace dpu = hyperion::dpu;
  namespace load = hyperion::load;
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  const auto passes = [](const Execution& exec) { return perfbench::GateError(exec).empty(); };

  Execution netkv;
  netkv.workload = Workload::kNetKv;
  netkv.attempted = 100;
  dpu::ClusterResult netkv_result;
  netkv_result.ok_ops = 100;
  netkv_result.makespan_ns = 5000;
  netkv.result = netkv_result;
  expect(passes(netkv), "netkv: clean result passes");
  Execution bad = netkv;
  std::get<dpu::ClusterResult>(bad.result).failed_ops = 1;
  expect(!passes(bad), "netkv: failed_ops = 1 fails");
  bad = netkv;
  std::get<dpu::ClusterResult>(bad.result).makespan_ns += 1;
  expect(!perfbench::ReplayError(netkv, bad).empty(), "netkv: replay off by 1 ns fails");
  expect(perfbench::ReplayError(netkv, netkv).empty(), "netkv: identical replay passes");

  Execution repkv;
  repkv.workload = Workload::kRepKv;
  repkv.attempted = 100;
  dpu::RepClusterResult repkv_result;
  repkv_result.ok_puts = 50;
  repkv_result.ok_gets = 50;
  repkv.result = repkv_result;
  repkv.audit.acked = 50;
  expect(passes(repkv), "repkv: clean result passes");
  bad = repkv;
  std::get<dpu::RepClusterResult>(bad.result).failed_ops = 1;
  expect(!passes(bad), "repkv: failed_ops = 1 fails");
  bad = repkv;
  bad.audit.lost = 1;
  expect(!passes(bad), "repkv: one lost acked write fails");
  expect(!perfbench::ReplayError(repkv, bad).empty(), "repkv: replay audit mismatch fails");

  Execution lsm;
  lsm.workload = Workload::kLsmScan;
  lsm.attempted = 110;
  lsm.result = load::OverloadResult{.issued = 100, .ok = 100, .scan_issued = 10, .scan_ok = 10};
  expect(passes(lsm), "lsm_scan: clean result passes");
  bad = lsm;
  std::get<load::OverloadResult>(bad.result).scan_ok = 9;
  expect(!passes(bad), "lsm_scan: one scan short fails");
  bad = lsm;
  std::get<load::OverloadResult>(bad.result).deadline_missed = 1;
  expect(!passes(bad), "lsm_scan: one deadline miss fails");
  bad = lsm;
  std::get<load::OverloadResult>(bad.result).rejected = 1;
  expect(!passes(bad), "lsm_scan: one rejection fails");

  Execution xdp;
  xdp.workload = Workload::kXdpIngress;
  xdp.attempted = 64;
  load::XdpClusterResult xdp_result;
  xdp_result.xdp.rx_frames = 64;
  xdp_result.spray_issued = 4;
  xdp_result.spray_ok = 4;
  xdp.result = xdp_result;
  expect(passes(xdp), "xdp_ingress: clean result passes");
  bad = xdp;
  std::get<load::XdpClusterResult>(bad.result).spray_failed = 1;
  expect(!passes(bad), "xdp_ingress: spray_failed = 1 fails");
  bad = xdp;
  std::get<load::XdpClusterResult>(bad.result).xdp.verdict_hash ^= 1;
  expect(!perfbench::ReplayError(xdp, bad).empty(), "xdp_ingress: verdict hash flip fails");

  Execution empty = netkv;
  empty.attempted = 0;
  expect(!passes(empty), "a run that attempted nothing fails");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string_view mode = argv[1];
  if (mode == "provenance" && argc == 2) {
    std::printf("{\"build_type\": %s, \"compiler\": %s, \"asserts_compiled_out\": %s}\n",
                Quote(kBuildType).c_str(), Quote(PERFBENCH_COMPILER).c_str(),
                kAssertsCompiledOut ? "true" : "false");
    return 0;
  }
  if (mode == "selftest" && argc == 2) {
    return SelfTest();
  }
  if ((mode != "check" && mode != "timed" && mode != "traced") || argc != 4) {
    return Usage();
  }
  const std::optional<Workload> workload = perfbench::ParseWorkload(argv[2]);
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(argv[3], &end, 10);
  if (!workload || end == argv[3] || *end != '\0') {
    return Usage();
  }
  if (kBuildType != "Release") {
    std::fprintf(stderr, "refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", std::string(kBuildType).c_str());
    return 3;
  }
  return RunMode(mode, *workload, seed);
}
