// Experiment E13 — overload and flow control (PR 5).
//
// Two experiment families:
//
//   HockeyStick/<ia_us>/<ac>   the sharded OverloadCluster: 3 open-loop
//       client nodes sweep offered load (per-client inter-arrival time ia)
//       against one Hyperion block server, with the server's admission
//       control OFF (ac=0) or ON (ac=1). Counters per run:
//         goodput_ops_s      in-deadline successes per simulated second
//         admitted_p99_us    p99 latency of in-deadline successes
//         shed_pct           requests fast-rejected by admission
//         miss_pct           requests completed past their deadline
//       OFF: past the knee, queues grow without bound — p99 explodes and
//       goodput collapses as every completion lands after its deadline.
//       ON: doomed work is shed at the NIC for reject_cost, admitted p99
//       stays bounded, and goodput holds the service-capacity plateau.
//
//   DoorbellBatch/<k>   the single-engine OverloadPipeline sweeping NVMe
//       doorbell coalescing K: one MMIO ring publishes up to K SQEs, so
//       doorbells-per-op falls as 1/K while the max-delay timer bounds the
//       added latency. Counters: p99_us, doorbells_per_op, mean_batch.
//
// Regenerate the PR 5 numbers with
//   bench_overload --benchmark_format=json > BENCH_PR5.json

#include <cstdint>
#include <memory>

#include <benchmark/benchmark.h>

#include "src/common/check.h"
#include "src/load/harness.h"
#include "src/load/loadgen.h"
#include "src/load/pipeline.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace {

using namespace hyperion;  // NOLINT

load::OverloadClusterOptions HockeyOptions(sim::Duration interarrival, bool admission) {
  load::OverloadClusterOptions options;
  options.num_clients = 3;
  options.requests_per_client = 200;
  options.interarrival = interarrival;
  options.deadline = 1 * sim::kMillisecond;
  options.policy.enabled = admission;
  options.policy.admission.max_pending = 32;
  options.policy.admission.max_backlog = 600 * sim::kMicrosecond;
  return options;
}

void HockeyStick(benchmark::State& state) {
  const auto interarrival = static_cast<sim::Duration>(state.range(0)) * sim::kMicrosecond;
  const bool admission = state.range(1) != 0;
  uint64_t ok = 0;
  uint64_t issued = 0;
  uint64_t rejected = 0;
  uint64_t missed = 0;
  uint64_t p99 = 0;
  double sim_seconds = 0;
  for (auto _ : state) {
    load::OverloadCluster cluster(HockeyOptions(interarrival, admission));
    const load::OverloadResult result = cluster.Run();
    CHECK_EQ(result.failed, 0u);
    ok += result.ok;
    issued += result.issued;
    rejected += result.rejected;
    missed += result.deadline_missed;
    p99 = result.latency_p99_ns;
    sim_seconds += sim::ToSeconds(result.makespan_ns);
  }
  state.counters["offered_ops_s"] =
      3.0 * static_cast<double>(sim::kSecond) / static_cast<double>(interarrival);
  state.counters["goodput_ops_s"] = sim_seconds > 0 ? static_cast<double>(ok) / sim_seconds : 0;
  state.counters["admitted_p99_us"] = static_cast<double>(p99) / 1000.0;
  state.counters["shed_pct"] = 100.0 * static_cast<double>(rejected) / static_cast<double>(issued);
  state.counters["miss_pct"] = 100.0 * static_cast<double>(missed) / static_cast<double>(issued);
}

// Per-client inter-arrival sweep (us) x admission {off, on}. The server's
// single-pipeline block-read service time is ~80 us, so per-client arrivals
// of 800..25 us sweep from well under the knee to 10x overload.
BENCHMARK(HockeyStick)
    ->ArgNames({"ia_us", "ac"})
    ->Args({800, 0})
    ->Args({800, 1})
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({25, 0})
    ->Args({25, 1})
    ->Unit(benchmark::kMillisecond);

void DoorbellBatch(benchmark::State& state) {
  const auto batch = static_cast<uint16_t>(state.range(0));
  uint64_t doorbells = 0;
  uint64_t sqes = 0;
  uint64_t ok = 0;
  uint64_t p99 = 0;
  double sim_seconds = 0;
  for (auto _ : state) {
    sim::Engine engine;
    load::OverloadPipelineOptions options;
    options.doorbell_batch = batch;
    options.doorbell_max_delay = 5 * sim::kMicrosecond;
    options.rx_batch = 1;       // isolate the doorbell axis
    options.admission_enabled = false;  // closed loop self-limits
    load::OverloadPipeline pipeline(&engine, options);
    load::LoadGenOptions gopts;
    // 32 outstanding requests: completions of one coalesced interrupt
    // reissue together, so arrivals cluster and batches actually form.
    gopts.open_loop = false;
    gopts.clients = 32;
    gopts.think_time = 0;
    gopts.total_requests = 2000;
    load::LoadGen gen(&engine, gopts,
                      [&pipeline](uint64_t seq, sim::SimTime deadline, load::LoadGen::DoneFn done) {
                        pipeline.Offer(seq, deadline, std::move(done));
                      });
    gen.Start();
    engine.Run();
    CHECK(gen.Finished());
    CHECK_EQ(gen.stats().failed, 0u);
    doorbells += pipeline.controller().counters().Get("nvme_doorbells");
    sqes += pipeline.controller().counters().Get("nvme_doorbell_sqes");
    ok += gen.stats().ok;
    p99 = gen.latency().P99();
    sim_seconds +=
        sim::ToSeconds(gen.stats().last_completion - gen.stats().first_issue);
  }
  state.counters["p99_us"] = static_cast<double>(p99) / 1000.0;
  state.counters["ops_s"] = sim_seconds > 0 ? static_cast<double>(ok) / sim_seconds : 0;
  state.counters["doorbells_per_op"] =
      ok > 0 ? static_cast<double>(doorbells) / static_cast<double>(ok) : 0;
  state.counters["mean_batch"] =
      doorbells > 0 ? static_cast<double>(sqes) / static_cast<double>(doorbells) : 0;
}

BENCHMARK(DoorbellBatch)
    ->ArgName("k")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
