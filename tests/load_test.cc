// Overload-control tests (PR 5): flow-control primitives (CreditGate,
// AdmissionController, Batcher), the deterministic load generator, the
// single-engine OverloadPipeline, and the sharded OverloadCluster's
// layout-invariance and hockey-stick properties.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/load/harness.h"
#include "src/load/loadgen.h"
#include "src/load/pipeline.h"
#include "src/obs/metrics.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"
#include "src/sim/time.h"
#include "tests/testutil.h"

namespace hyperion::load {
namespace {

// -- CreditGate ------------------------------------------------------------

TEST(CreditGateTest, AcquireReleaseRoundTrip) {
  sim::CreditGate gate(2);
  EXPECT_EQ(gate.capacity(), 2u);
  EXPECT_EQ(gate.available(), 2u);
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_EQ(gate.in_use(), 2u);
  EXPECT_EQ(gate.available(), 0u);
  gate.Release();
  EXPECT_EQ(gate.in_use(), 1u);
  gate.Release();
  EXPECT_EQ(gate.in_use(), 0u);
  EXPECT_EQ(gate.counters().Get("credit_acquired"), 2u);
  EXPECT_EQ(gate.counters().Get("credit_released"), 2u);
  EXPECT_EQ(gate.counters().Get("credit_exhausted"), 0u);
}

TEST(CreditGateTest, ExhaustionThenReplenish) {
  sim::CreditGate gate(1);
  ASSERT_TRUE(gate.TryAcquire());
  // Exhausted: acquisitions fail (and are counted) until a release.
  EXPECT_FALSE(gate.TryAcquire());
  EXPECT_FALSE(gate.TryAcquire());
  EXPECT_EQ(gate.counters().Get("credit_exhausted"), 2u);
  gate.Release();
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_EQ(gate.max_in_use(), 1u);
  EXPECT_EQ(gate.counters().Get("credit_acquired"), 2u);
}

// -- AdmissionController ---------------------------------------------------

TEST(AdmissionTest, AdmitsWhenIdle) {
  sim::AdmissionController admission;
  EXPECT_EQ(admission.Decide(1000, /*busy_until=*/0, sim::Engine::kNever),
            sim::AdmissionDecision::kAdmit);
  EXPECT_EQ(admission.counters().Get("admission_admitted"), 1u);
}

TEST(AdmissionTest, BoundedPendingQueueShedsThenDrains) {
  sim::AdmissionParams params;
  params.max_pending = 2;
  sim::AdmissionController admission(params);
  // Two admitted requests finishing at t=5000 fill the bounded queue.
  admission.OnAdmitted(/*arrival=*/1000, /*finish=*/5000);
  admission.OnAdmitted(/*arrival=*/1100, /*finish=*/5000);
  EXPECT_EQ(admission.Decide(2000, 5000, sim::Engine::kNever),
            sim::AdmissionDecision::kShedQueueFull);
  EXPECT_EQ(admission.counters().Get("admission_shed_queue_full"), 1u);
  // Past their finish times the slots free up again.
  EXPECT_EQ(admission.PendingAt(6000), 0u);
  EXPECT_EQ(admission.Decide(6000, 5000, sim::Engine::kNever),
            sim::AdmissionDecision::kAdmit);
}

TEST(AdmissionTest, BacklogBoundSheds) {
  sim::AdmissionParams params;
  params.max_backlog = 1 * sim::kMicrosecond;
  sim::AdmissionController admission(params);
  EXPECT_EQ(admission.Decide(/*now=*/1000, /*busy_until=*/1000 + 2 * sim::kMicrosecond,
                             sim::Engine::kNever),
            sim::AdmissionDecision::kShedBacklog);
  EXPECT_EQ(admission.counters().Get("admission_shed_backlog"), 1u);
  // An idle pipeline (busy_until in the past) never sheds on backlog.
  EXPECT_EQ(admission.Decide(/*now=*/5000, /*busy_until=*/0, sim::Engine::kNever),
            sim::AdmissionDecision::kAdmit);
}

TEST(AdmissionTest, DeadlineAwareShedding) {
  sim::AdmissionController admission;
  // Seed the service estimate: one request, 80us of pure service.
  admission.OnAdmitted(/*arrival=*/0, /*finish=*/80 * sim::kMicrosecond);
  ASSERT_EQ(admission.EstimatedService(),
            static_cast<sim::Duration>(80 * sim::kMicrosecond));
  const sim::SimTime now = 100 * sim::kMicrosecond;
  const sim::SimTime busy = now + 50 * sim::kMicrosecond;
  // backlog 50us + est 80us = 130us: a 100us deadline is doomed, shed it...
  EXPECT_EQ(admission.Decide(now, busy, now + 100 * sim::kMicrosecond),
            sim::AdmissionDecision::kShedDeadline);
  EXPECT_EQ(admission.counters().Get("admission_shed_deadline"), 1u);
  // ...a 200us deadline is feasible, and no deadline never sheds this way.
  EXPECT_EQ(admission.Decide(now, busy, now + 200 * sim::kMicrosecond),
            sim::AdmissionDecision::kAdmit);
  EXPECT_EQ(admission.Decide(now, busy, sim::Engine::kNever),
            sim::AdmissionDecision::kAdmit);
}

TEST(AdmissionTest, EwmaTracksServiceTime) {
  sim::AdmissionParams params;
  params.ewma_alpha = 0.5;
  sim::AdmissionController admission(params);
  admission.OnAdmitted(0, 1000);  // first sample seeds the estimate exactly
  EXPECT_EQ(admission.EstimatedService(), 1000u);
  // Back-to-back FIFO: service start is the previous finish, sample 3000.
  admission.OnAdmitted(500, 4000);
  EXPECT_EQ(admission.EstimatedService(), 2000u);  // 1000 + 0.5 * (3000 - 1000)
}

// -- Batcher ---------------------------------------------------------------

struct Flushed {
  std::vector<int> items;
  bool timer = false;
  sim::SimTime at = 0;
};

TEST(BatcherTest, FullBatchFlushesInline) {
  sim::Engine engine;
  std::vector<Flushed> flushes;
  sim::Batcher<int> batcher(&engine, /*max_batch=*/3, /*max_delay=*/10 * sim::kMicrosecond,
                            [&](std::vector<int> batch, bool timer) {
                              flushes.push_back({std::move(batch), timer, engine.Now()});
                            });
  engine.ScheduleAt(1000, [&] {
    batcher.Add(1);
    batcher.Add(2);
    batcher.Add(3);
  });
  engine.Run();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].items, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(flushes[0].timer);
  EXPECT_EQ(flushes[0].at, 1000u);  // size-triggered: no added delay
  EXPECT_EQ(batcher.counters().Get("batch_flush_full"), 1u);
  // The armed timer found its generation flushed and did nothing.
  EXPECT_EQ(batcher.counters().Get("batch_flush_timer"), 0u);
}

TEST(BatcherTest, TimerFlushesLoneItemOnIdleSystem) {
  sim::Engine engine;
  std::vector<Flushed> flushes;
  sim::Batcher<int> batcher(&engine, /*max_batch=*/8, /*max_delay=*/2 * sim::kMicrosecond,
                            [&](std::vector<int> batch, bool timer) {
                              flushes.push_back({std::move(batch), timer, engine.Now()});
                            });
  engine.ScheduleAt(1000, [&] { batcher.Add(42); });
  engine.Run();
  // A lone item on an idle system is never stranded: the max-delay timer
  // flushes it, bounding the latency the coalescer can add.
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].items, std::vector<int>{42});
  EXPECT_TRUE(flushes[0].timer);
  EXPECT_EQ(flushes[0].at, 1000u + 2 * sim::kMicrosecond);
  EXPECT_EQ(batcher.counters().Get("batch_flush_timer"), 1u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(BatcherTest, StaleTimerDoesNotFlushNextBatchEarly) {
  sim::Engine engine;
  std::vector<Flushed> flushes;
  const sim::Duration delay = 2 * sim::kMicrosecond;
  sim::Batcher<int> batcher(&engine, /*max_batch=*/2, delay,
                            [&](std::vector<int> batch, bool timer) {
                              flushes.push_back({std::move(batch), timer, engine.Now()});
                            });
  // t=1000: {1, 2} flushes by size, leaving its timer armed for t=1000+d.
  engine.ScheduleAt(1000, [&] {
    batcher.Add(1);
    batcher.Add(2);
  });
  // t=1500: a new batch starts. The stale timer at 1000+d must not flush
  // it; its own timer at 1500+d must.
  engine.ScheduleAt(1500, [&] { batcher.Add(3); });
  engine.Run();
  ASSERT_EQ(flushes.size(), 2u);
  EXPECT_EQ(flushes[0].at, 1000u);
  EXPECT_EQ(flushes[1].items, std::vector<int>{3});
  EXPECT_EQ(flushes[1].at, 1500u + delay);
  EXPECT_TRUE(flushes[1].timer);
}

TEST(BatcherTest, ManualFlushDrainsPartialBatch) {
  sim::Engine engine;
  std::vector<Flushed> flushes;
  sim::Batcher<int> batcher(&engine, /*max_batch=*/8, 10 * sim::kMicrosecond,
                            [&](std::vector<int> batch, bool timer) {
                              flushes.push_back({std::move(batch), timer, engine.Now()});
                            });
  engine.ScheduleAt(1000, [&] {
    batcher.Add(7);
    batcher.Flush();
    batcher.Flush();  // empty: no-op
  });
  engine.Run();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_FALSE(flushes[0].timer);
  EXPECT_EQ(batcher.counters().Get("batch_flush_manual"), 1u);
}

// -- LoadGen ---------------------------------------------------------------

TEST(LoadGenTest, OpenLoopIssuesAtFixedSpacing) {
  sim::Engine engine;
  LoadGenOptions options;
  options.open_loop = true;
  options.interarrival = 5 * sim::kMicrosecond;
  options.total_requests = 4;
  options.start = 1000;
  std::vector<sim::SimTime> issue_times;
  LoadGen gen(&engine, options, [&](uint64_t seq, sim::SimTime deadline, LoadGen::DoneFn done) {
    EXPECT_EQ(seq, issue_times.size());
    EXPECT_EQ(deadline, sim::Engine::kNever);  // options.deadline == 0
    issue_times.push_back(engine.Now());
    done(Outcome::kOk);
  });
  gen.Start();
  engine.Run();
  EXPECT_TRUE(gen.Finished());
  ASSERT_EQ(issue_times.size(), 4u);
  for (size_t i = 0; i < issue_times.size(); ++i) {
    EXPECT_EQ(issue_times[i], 1000u + i * 5 * sim::kMicrosecond);
  }
  EXPECT_EQ(gen.stats().ok, 4u);
  EXPECT_EQ(gen.stats().completed(), 4u);
}

TEST(LoadGenTest, LateCompletionCountsAsDeadlineMiss) {
  sim::Engine engine;
  LoadGenOptions options;
  options.open_loop = true;
  options.interarrival = 100 * sim::kMicrosecond;
  options.total_requests = 2;
  options.deadline = 10 * sim::kMicrosecond;
  LoadGen gen(&engine, options, [&](uint64_t seq, sim::SimTime deadline, LoadGen::DoneFn done) {
    EXPECT_EQ(deadline, engine.Now() + 10 * sim::kMicrosecond);
    // First request answers in time, second answers late.
    const sim::Duration service =
        seq == 0 ? 5 * sim::kMicrosecond : 50 * sim::kMicrosecond;
    engine.ScheduleAfter(service, [done = std::move(done)] { done(Outcome::kOk); });
  });
  gen.Start();
  engine.Run();
  EXPECT_EQ(gen.stats().ok, 1u);
  EXPECT_EQ(gen.stats().deadline_missed, 1u);
  EXPECT_EQ(gen.latency().count(), 1u);  // only the in-deadline success
}

TEST(LoadGenTest, ClosedLoopBoundsOutstandingRequests) {
  sim::Engine engine;
  LoadGenOptions options;
  options.open_loop = false;
  options.clients = 3;
  options.think_time = 1 * sim::kMicrosecond;
  options.total_requests = 20;
  uint32_t outstanding = 0;
  uint32_t max_outstanding = 0;
  LoadGen gen(&engine, options, [&](uint64_t, sim::SimTime, LoadGen::DoneFn done) {
    ++outstanding;
    max_outstanding = std::max(max_outstanding, outstanding);
    engine.ScheduleAfter(10 * sim::kMicrosecond, [&, done = std::move(done)] {
      --outstanding;
      done(Outcome::kOk);
    });
  });
  gen.Start();
  engine.Run();
  EXPECT_TRUE(gen.Finished());
  EXPECT_EQ(gen.stats().issued, 20u);
  EXPECT_EQ(gen.stats().ok, 20u);
  // A closed loop self-limits: at most `clients` requests in flight.
  EXPECT_EQ(max_outstanding, 3u);
}

TEST(LoadGenTest, RejectionsAreCountedNotRetried) {
  sim::Engine engine;
  LoadGenOptions options;
  options.open_loop = false;
  options.clients = 2;
  options.total_requests = 10;
  LoadGen gen(&engine, options, [&](uint64_t seq, sim::SimTime, LoadGen::DoneFn done) {
    // Even inline rejection must not recurse: the closed loop reissues via
    // a scheduled event.
    done(seq % 2 == 0 ? Outcome::kRejected : Outcome::kOk);
  });
  gen.Start();
  engine.Run();
  EXPECT_TRUE(gen.Finished());
  EXPECT_EQ(gen.stats().rejected, 5u);
  EXPECT_EQ(gen.stats().ok, 5u);
  EXPECT_EQ(gen.stats().completed(), 10u);
}

// -- OverloadPipeline ------------------------------------------------------

struct PipelineTally {
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;

  LoadGen::DoneFn Sink() {
    return [this](Outcome outcome) {
      switch (outcome) {
        case Outcome::kOk: ++ok; break;
        case Outcome::kRejected: ++rejected; break;
        case Outcome::kFailed: ++failed; break;
      }
    };
  }
};

TEST(OverloadPipelineTest, LoneRequestCompletesViaIdleTimerFlush) {
  sim::Engine engine;
  OverloadPipelineOptions options;  // rx_batch 4, doorbell_batch 4: both > 1
  OverloadPipeline pipeline(&engine, options);
  PipelineTally tally;
  engine.ScheduleAt(1000, [&] { pipeline.Offer(0, sim::Engine::kNever, tally.Sink()); });
  engine.Run();
  // Neither coalescer reached its size bound; both max-delay timers fired,
  // so the lone request still flowed NIC -> admission -> FPGA -> flash.
  EXPECT_EQ(tally.ok, 1u);
  EXPECT_EQ(pipeline.counters().Get("completed"), 1u);
  EXPECT_EQ(pipeline.controller().counters().Get("nvme_doorbells"), 1u);
  // All credits returned once the pipeline drained.
  EXPECT_EQ(pipeline.nic_gate().in_use(), 0u);
  EXPECT_EQ(pipeline.fpga_gate().in_use(), 0u);
}

TEST(OverloadPipelineTest, ShedsUnderBurstAndRecovers) {
  sim::Engine engine;
  OverloadPipelineOptions options;
  options.admission.max_pending = 4;
  options.admission.max_backlog = 200 * sim::kMicrosecond;
  OverloadPipeline pipeline(&engine, options);
  PipelineTally tally;
  // A 64-request burst in one event: far beyond the bounded pending queue.
  engine.ScheduleAt(1000, [&] {
    for (uint64_t seq = 0; seq < 64; ++seq) {
      pipeline.Offer(seq, sim::Engine::kNever, tally.Sink());
    }
  });
  engine.Run();
  EXPECT_EQ(tally.ok + tally.rejected, 64u);
  EXPECT_EQ(tally.failed, 0u);
  // The burst overflowed the bounded queue; the excess was shed, the
  // admitted prefix completed.
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.ok, 0u);
  EXPECT_GT(pipeline.counters().Get("pipe_shed_queue"), 0u);
  EXPECT_EQ(pipeline.counters().Get("pipe_admitted"), tally.ok);
  // Recovery: once drained, a fresh request is admitted again.
  PipelineTally later;
  engine.ScheduleAfter(10 * sim::kMillisecond,
                       [&] { pipeline.Offer(100, sim::Engine::kNever, later.Sink()); });
  engine.Run();
  EXPECT_EQ(later.ok, 1u);
  EXPECT_EQ(pipeline.nic_gate().in_use(), 0u);
  EXPECT_EQ(pipeline.fpga_gate().in_use(), 0u);
}

TEST(OverloadPipelineTest, RejectIsFastAndTouchesNoDeviceTime) {
  sim::Engine engine;
  OverloadPipelineOptions options;
  options.admission.max_pending = 1;
  options.rx_batch = 1;       // admit each arrival immediately
  options.doorbell_batch = 1; // submit each admitted request immediately
  options.reject_cost = 200;
  OverloadPipeline pipeline(&engine, options);
  PipelineTally tally;
  std::vector<sim::SimTime> completion_times;
  engine.ScheduleAt(1000, [&] {
    for (uint64_t seq = 0; seq < 8; ++seq) {
      pipeline.Offer(seq, sim::Engine::kNever, [&](Outcome outcome) {
        tally.Sink()(outcome);
        completion_times.push_back(engine.Now());
      });
    }
  });
  engine.Run();
  ASSERT_EQ(tally.rejected, 7u);
  ASSERT_EQ(tally.ok, 1u);
  // Sheds answer after reject_cost only — they never reach the flash, so
  // the device clock advanced by a single request's doorbell + media time.
  const sim::SimTime device_busy = pipeline.device_clock().Now() - 1000;
  EXPECT_LT(device_busy, 200 * sim::kMicrosecond);
  uint64_t fast_rejects = 0;
  for (sim::SimTime t : completion_times) {
    if (t == 1000 + options.reject_cost) {
      ++fast_rejects;
    }
  }
  EXPECT_EQ(fast_rejects, 7u);
}

TEST(OverloadPipelineTest, FpgaCreditExhaustionBackpressuresAndReplenishes) {
  sim::Engine engine;
  OverloadPipelineOptions options;
  options.admission_enabled = false;  // isolate the credit path
  options.fpga_slots = 2;
  options.rx_batch = 1;
  OverloadPipeline pipeline(&engine, options);
  PipelineTally tally;
  engine.ScheduleAt(1000, [&] {
    for (uint64_t seq = 0; seq < 6; ++seq) {
      pipeline.Offer(seq, sim::Engine::kNever, tally.Sink());
    }
  });
  engine.Run();
  // Two slots: two admitted, four bounced by credit exhaustion.
  EXPECT_EQ(tally.ok, 2u);
  EXPECT_EQ(tally.rejected, 4u);
  EXPECT_EQ(pipeline.counters().Get("fpga_backpressure"), 4u);
  EXPECT_EQ(pipeline.fpga_gate().counters().Get("credit_exhausted"), 4u);
  EXPECT_EQ(pipeline.fpga_gate().max_in_use(), 2u);
  // Credits replenished on completion: the next burst is admitted again.
  PipelineTally later;
  engine.ScheduleAfter(1 * sim::kMillisecond, [&] {
    pipeline.Offer(10, sim::Engine::kNever, later.Sink());
    pipeline.Offer(11, sim::Engine::kNever, later.Sink());
  });
  engine.Run();
  EXPECT_EQ(later.ok, 2u);
  EXPECT_EQ(pipeline.fpga_gate().in_use(), 0u);
}

TEST(OverloadPipelineTest, NicTailDropsWhenSaturated) {
  sim::Engine engine;
  OverloadPipelineOptions options;
  options.nic_capacity = 4;
  OverloadPipeline pipeline(&engine, options);
  PipelineTally tally;
  engine.ScheduleAt(1000, [&] {
    for (uint64_t seq = 0; seq < 10; ++seq) {
      pipeline.Offer(seq, sim::Engine::kNever, tally.Sink());
    }
  });
  engine.Run();
  EXPECT_EQ(pipeline.counters().Get("nic_offered"), 10u);
  EXPECT_EQ(pipeline.counters().Get("nic_dropped"), 6u);
  EXPECT_EQ(tally.ok + tally.rejected, 10u);
  EXPECT_EQ(pipeline.nic_gate().in_use(), 0u);
}

TEST(OverloadPipelineTest, MetricsSnapshotExportsEveryStage) {
  sim::Engine engine;
  OverloadPipelineOptions options;
  options.admission.max_pending = 2;
  OverloadPipeline pipeline(&engine, options);
  PipelineTally tally;
  engine.ScheduleAt(1000, [&] {
    for (uint64_t seq = 0; seq < 16; ++seq) {
      pipeline.Offer(seq, sim::Engine::kNever, tally.Sink());
    }
  });
  engine.Run();
  obs::MetricsRegistry registry;
  pipeline.SnapshotMetrics(&registry);
  EXPECT_EQ(registry.CounterValue(obs::Subsystem::kApp, "nic_offered"), 16u);
  EXPECT_GT(registry.CounterValue(obs::Subsystem::kApp, "admission_admitted"), 0u);
  EXPECT_GT(registry.CounterValue(obs::Subsystem::kNvme, "nvme_doorbells"), 0u);
  EXPECT_GT(registry.CounterValue(obs::Subsystem::kNet, "nic_credit_acquired"), 0u);
  EXPECT_GT(registry.CounterValue(obs::Subsystem::kFpga, "fpga_credit_acquired"), 0u);
  ASSERT_NE(registry.FindHistogram(obs::Subsystem::kApp, "admission_depth_p99"), nullptr);
}

// -- OverloadCluster: determinism and the hockey-stick property ------------

OverloadClusterOptions SmallClusterOptions(bool admission) {
  OverloadClusterOptions options;
  options.num_clients = 3;
  options.requests_per_client = 40;
  options.interarrival = 50 * sim::kMicrosecond;
  options.deadline = 1 * sim::kMillisecond;
  options.policy.enabled = admission;
  options.policy.admission.max_pending = 32;
  options.policy.admission.max_backlog = 600 * sim::kMicrosecond;
  return options;
}

TEST(OverloadClusterTest, ResultBitIdenticalAcrossShardsAndThreads) {
  for (const bool admission : {false, true}) {
    const OverloadResult golden =
        testutil::ExpectLayoutInvariant<OverloadCluster>(SmallClusterOptions(admission));
    EXPECT_EQ(golden.issued, 120u) << "admission=" << admission;
    EXPECT_EQ(golden.failed, 0u) << "admission=" << admission;
  }
}

TEST(OverloadClusterTest, AdmissionControlBoundsTailUnderOverload) {
  // ~80us block-read service vs 25us/client arrivals: 3x overload.
  OverloadClusterOptions overload = SmallClusterOptions(/*admission=*/false);
  overload.requests_per_client = 100;
  overload.interarrival = 25 * sim::kMicrosecond;
  OverloadCluster without(overload);
  const OverloadResult off = without.Run();

  overload.policy.enabled = true;
  OverloadCluster with(overload);
  const OverloadResult on = with.Run();

  EXPECT_EQ(off.failed, 0u);
  EXPECT_EQ(on.failed, 0u);
  // Without admission control the open-loop queue grows without bound:
  // completions land past their deadlines and goodput collapses. With it,
  // doomed work is shed early and the admitted tail stays bounded.
  EXPECT_GT(off.deadline_missed, 0u);
  EXPECT_GT(on.ok, off.ok);
  EXPECT_GT(on.rejected, 0u);
  EXPECT_LT(on.deadline_missed, off.deadline_missed);
  EXPECT_LT(on.latency_p99_ns, static_cast<uint64_t>(overload.deadline));
  EXPECT_EQ(on.admitted + on.shed_queue + on.shed_deadline, on.served);
}

// The PR 6 follow-up: the LSM engine as a served workload over RPC, with
// the same layout-invariance bar as the block workload.
OverloadClusterOptions LsmKvOptions() {
  OverloadClusterOptions options;
  options.workload = OverloadWorkload::kLsmKv;
  options.num_clients = 3;
  options.requests_per_client = 32;
  options.interarrival = 60 * sim::kMicrosecond;
  options.deadline = 0;  // unbounded: every issued op must land
  options.kv_key_space = 96;
  options.kv_write_pct = 50;
  options.kv_value_bytes = 48;
  return options;
}

TEST(OverloadClusterTest, LsmKvOverRpcServesEveryRequest) {
  OverloadCluster cluster(LsmKvOptions());
  const OverloadResult result = cluster.Run();
  EXPECT_EQ(result.issued, 96u);
  EXPECT_EQ(result.ok, 96u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_GT(result.latency_count, 0u);
}

TEST(OverloadClusterTest, LsmKvResultBitIdenticalAcrossShardsAndThreads) {
  testutil::ExpectLayoutInvariant<OverloadCluster>(LsmKvOptions());
}

TEST(OverloadClusterTest, LsmKvDeadlineAdmissionShedsDoomedPuts) {
  // Durable puts are expensive (WAL sync per op): drive them open-loop past
  // the knee and the PR 5 deadline machinery must shed rather than queue.
  OverloadClusterOptions options = LsmKvOptions();
  options.requests_per_client = 64;
  options.interarrival = 15 * sim::kMicrosecond;
  options.deadline = 800 * sim::kMicrosecond;
  options.policy.enabled = true;
  options.policy.admission.max_pending = 24;
  options.policy.admission.max_backlog = 500 * sim::kMicrosecond;
  OverloadCluster cluster(options);
  const OverloadResult result = cluster.Run();
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.ok, 0u);
  EXPECT_GT(result.rejected, 0u);  // admission answered doomed work early
  EXPECT_EQ(result.admitted + result.shed_queue + result.shed_deadline, result.served);
}

TEST(OverloadClusterTest, AdmissionControlIsTransparentUnderLightLoad) {
  // 800us/client arrivals: well under the knee — the policy must not shed.
  OverloadClusterOptions light = SmallClusterOptions(/*admission=*/true);
  light.requests_per_client = 20;
  light.interarrival = 800 * sim::kMicrosecond;
  OverloadCluster cluster(light);
  const OverloadResult result = cluster.Run();
  EXPECT_EQ(result.ok, 60u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.shed_queue, 0u);
  EXPECT_EQ(result.shed_deadline, 0u);
  EXPECT_EQ(result.deadline_missed, 0u);
}

TEST(OverloadClusterTest, MetricsSnapshotCoversServerAndClients) {
  OverloadClusterOptions options = SmallClusterOptions(/*admission=*/true);
  options.interarrival = 25 * sim::kMicrosecond;
  OverloadCluster cluster(options);
  const OverloadResult result = cluster.Run();
  ASSERT_GT(result.admitted, 0u);
  obs::MetricsRegistry registry;
  cluster.SnapshotMetrics(&registry);
  EXPECT_EQ(registry.CounterValue(obs::Subsystem::kRpc, "rpc_admitted"), result.admitted);
  EXPECT_EQ(registry.CounterValue(obs::Subsystem::kRpc, "admission_admitted"),
            result.admitted);
  ASSERT_NE(registry.FindHistogram(obs::Subsystem::kRpc, "admission_depth_p99"), nullptr);
}

}  // namespace
}  // namespace hyperion::load
