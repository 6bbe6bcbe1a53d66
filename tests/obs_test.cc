// Unit + property tests for the observability layer (PR 4): the metrics
// registry's merge semantics (per-shard snapshot merge == single-registry
// ground truth, fuzzed), the tracer's span invariants under random nesting
// (end >= begin, child interval inside parent interval, unique ids, trace
// id propagation), the RPC trace-trailer codec's round trip and wire
// compatibility, and the exporters (Chrome JSON + critical-path report).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dpu/rpc.h"
#include "src/dpu/services.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"

namespace hyperion::obs {
namespace {

// -- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreInternedAndStable) {
  MetricsRegistry registry;
  auto* retries = registry.RegisterCounter(Subsystem::kNvme, "retries");
  retries->Add(3);
  // Re-registering the same (subsystem, name) returns the same instrument.
  EXPECT_EQ(registry.RegisterCounter(Subsystem::kNvme, "retries"), retries);
  // Same name under another subsystem is a different instrument.
  EXPECT_NE(registry.RegisterCounter(Subsystem::kRpc, "retries"), retries);
  registry.Add(Subsystem::kNvme, "retries", 2);
  EXPECT_EQ(registry.CounterValue(Subsystem::kNvme, "retries"), 5u);
  EXPECT_EQ(registry.CounterValue(Subsystem::kRpc, "retries"), 0u);

  registry.SetGauge(Subsystem::kFpga, "slots_free", 4);
  registry.SetGauge(Subsystem::kFpga, "slots_free", 2);
  EXPECT_EQ(registry.GaugeValue(Subsystem::kFpga, "slots_free"), 2);

  registry.Record(Subsystem::kRpc, "latency_ns", 100);
  registry.Record(Subsystem::kRpc, "latency_ns", 300);
  const sim::Histogram* latency = registry.FindHistogram(Subsystem::kRpc, "latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
  EXPECT_EQ(latency->min(), 100u);
  EXPECT_EQ(latency->max(), 300u);
}

TEST(MetricsRegistryTest, ToJsonIsSortedAndInsertionOrderIndependent) {
  MetricsRegistry forward;
  forward.Add(Subsystem::kNet, "frames", 7);
  forward.Add(Subsystem::kNvme, "reads", 9);
  forward.Record(Subsystem::kRpc, "latency_ns", 250);

  MetricsRegistry backward;
  backward.Record(Subsystem::kRpc, "latency_ns", 250);
  backward.Add(Subsystem::kNvme, "reads", 9);
  backward.Add(Subsystem::kNet, "frames", 7);

  EXPECT_EQ(forward.ToJson(), backward.ToJson());
  // Keys are "<subsystem>/<name>" and the document names every section.
  const std::string json = forward.ToJson();
  EXPECT_NE(json.find("\"net/frames\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nvme/reads\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rpc/latency_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, MergeAddsCountersAndTakesLatestGauge) {
  MetricsRegistry a;
  a.Add(Subsystem::kNvme, "reads", 10);
  a.SetGauge(Subsystem::kFpga, "slots_free", 5);

  MetricsRegistry b;
  b.Add(Subsystem::kNvme, "reads", 4);
  b.Add(Subsystem::kNvme, "writes", 1);
  b.SetGauge(Subsystem::kFpga, "slots_free", 2);

  a.Merge(b);
  EXPECT_EQ(a.CounterValue(Subsystem::kNvme, "reads"), 14u);
  EXPECT_EQ(a.CounterValue(Subsystem::kNvme, "writes"), 1u);
  // Latest-writer wins: the merged-in registry holds the newer write.
  EXPECT_EQ(a.GaugeValue(Subsystem::kFpga, "slots_free"), 2);
}

TEST(MetricsRegistryTest, ImportCountersBucketsUnderSubsystem) {
  sim::Counters bag;
  bag.Add("rpcs", 12);
  bag.Add("bytes", 4096);
  MetricsRegistry registry;
  registry.ImportCounters(Subsystem::kRpc, bag);
  registry.ImportCounters(Subsystem::kRpc, bag);  // imports accumulate
  EXPECT_EQ(registry.CounterValue(Subsystem::kRpc, "rpcs"), 24u);
  EXPECT_EQ(registry.CounterValue(Subsystem::kRpc, "bytes"), 8192u);
}

// The property the sharded cluster relies on: events scattered across K
// per-shard registries, then merged, give byte-identical JSON to the same
// events applied to one registry. Fuzzed over seeds; gauges are excluded
// because their latest-writer semantics depend on write order, which a
// shard split intentionally loses.
TEST(MetricsRegistryTest, ShardedSnapshotMergeEqualsGroundTruth) {
  constexpr const char* kNames[] = {"ops", "bytes", "retries", "stalls"};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const size_t shards = 1 + rng.Uniform(4);
    std::vector<std::unique_ptr<MetricsRegistry>> per_shard;
    for (size_t s = 0; s < shards; ++s) {
      per_shard.push_back(std::make_unique<MetricsRegistry>());
    }
    MetricsRegistry truth;

    for (int event = 0; event < 400; ++event) {
      auto subsystem = static_cast<Subsystem>(rng.Uniform(kSubsystemCount));
      const char* name = kNames[rng.Uniform(4)];
      MetricsRegistry& shard = *per_shard[rng.Uniform(shards)];
      if (rng.Uniform(2) == 0) {
        const uint64_t delta = rng.Uniform(1000);
        shard.Add(subsystem, name, delta);
        truth.Add(subsystem, name, delta);
      } else {
        const uint64_t value = rng.Uniform(1 << 20);
        shard.Record(subsystem, name, value);
        truth.Record(subsystem, name, value);
      }
    }

    MetricsRegistry merged;
    for (const auto& shard : per_shard) {
      merged.Merge(*shard);
    }
    EXPECT_EQ(merged.ToJson(), truth.ToJson()) << "seed=" << seed;
  }
}

// -- Tracer ----------------------------------------------------------------

TEST(TracerTest, SpansNestViaTheStackAndCompose) {
  Tracer tracer(/*origin=*/3);
  const SpanId outer = tracer.Begin(Subsystem::kRpc, "rpc.call", 100);
  const SpanId inner = tracer.Begin(Subsystem::kNvme, "nvme.read", 150);
  tracer.End(inner, 180);
  tracer.End(outer, 200);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const SpanRecord& parent = tracer.spans()[0];
  const SpanRecord& child = tracer.spans()[1];
  EXPECT_EQ(parent.id, outer);
  EXPECT_EQ(parent.parent, 0u);  // root
  EXPECT_EQ(child.parent, outer);
  EXPECT_EQ(child.trace_id, parent.trace_id);
  EXPECT_NE(parent.trace_id, 0u);
  EXPECT_EQ(parent.origin, 3u);
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(TracerTest, ExplicitContextStitchesAcrossTracers) {
  Tracer client(/*origin=*/1);
  Tracer server(/*origin=*/2);

  const SpanId call = client.BeginAsync(Subsystem::kRpc, "rpc.call", 1000);
  const TraceContext ctx = client.ContextOf(call);
  ASSERT_TRUE(static_cast<bool>(ctx));

  const SpanId serve = server.BeginAsync(Subsystem::kRpc, "rpc.serve", 1200, ctx);
  server.End(serve, 1800);
  client.End(call, 2000);

  const std::vector<SpanRecord> merged = Tracer::Merged({&server, &client});
  ASSERT_EQ(merged.size(), 2u);
  // (begin, origin, id) order, independent of the argument order.
  EXPECT_EQ(merged[0].name, "rpc.call");
  EXPECT_EQ(merged[1].name, "rpc.serve");
  EXPECT_EQ(merged[1].parent, call);
  EXPECT_EQ(merged[1].trace_id, merged[0].trace_id);
  EXPECT_NE(merged[0].id, merged[1].id);  // origins make ids distinct
  EXPECT_EQ(merged, Tracer::Merged({&client, &server}));
}

TEST(TracerTest, DisabledTracerRecordsNothingForFree) {
  Tracer tracer(9);
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.NewTraceId(), 0u);
  EXPECT_EQ(tracer.Begin(Subsystem::kNet, "net.send", 10), 0u);
  tracer.End(0, 20);  // no-op by contract
  tracer.Instant(Subsystem::kNet, "net.drop", 30);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(TracerTest, InstantSpansHaveZeroDuration) {
  Tracer tracer(1);
  tracer.Instant(Subsystem::kFpga, "fpga.migrate", 500);
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].begin, 500u);
  EXPECT_EQ(tracer.spans()[0].end, 500u);
  EXPECT_EQ(tracer.spans()[0].duration(), 0u);
}

TEST(TracerTest, ScopedSpanClosesOnEarlyExit) {
  sim::Engine engine;
  Tracer tracer(4);
  {
    ScopedSpan span(&tracer, &engine, Subsystem::kPcie, "pcie.dma");
    engine.Advance(250);
    // Scope exits without an explicit End — simulating an error return.
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].duration(), 250u);
  EXPECT_EQ(tracer.open_depth(), 0u);

  // Null tracer / null clock construction is inert.
  { ScopedSpan inert(nullptr, &engine, Subsystem::kPcie, "x"); }
  { ScopedSpan inert2; }
  EXPECT_EQ(tracer.spans().size(), 1u);
}

// Fuzzed structural invariants: random open/advance/close sequences always
// produce well-formed forests — every span closed with end >= begin, every
// child's interval inside its parent's, ids unique, trace ids inherited.
TEST(TracerTest, RandomNestingKeepsSpanInvariants) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    sim::Engine engine;
    Tracer tracer(static_cast<uint32_t>(seed));
    std::vector<SpanId> open;
    for (int step = 0; step < 300; ++step) {
      engine.Advance(rng.Uniform(50));
      const bool can_close = !open.empty();
      if (!can_close || rng.Uniform(100) < 55) {
        open.push_back(tracer.Begin(static_cast<Subsystem>(rng.Uniform(kSubsystemCount)),
                                    "span", engine.Now()));
      } else {
        tracer.End(open.back(), engine.Now());
        open.pop_back();
      }
    }
    while (!open.empty()) {
      engine.Advance(rng.Uniform(50));
      tracer.End(open.back(), engine.Now());
      open.pop_back();
    }
    EXPECT_EQ(tracer.open_depth(), 0u);

    std::vector<SpanId> ids;
    for (const SpanRecord& span : tracer.spans()) {
      ASSERT_NE(span.id, 0u);
      ids.push_back(span.id);
      ASSERT_NE(span.end, SpanRecord::kOpen);
      ASSERT_GE(span.end, span.begin);
      ASSERT_NE(span.trace_id, 0u);
      if (span.parent != 0) {
        const SpanRecord* parent = nullptr;
        for (const SpanRecord& candidate : tracer.spans()) {
          if (candidate.id == span.parent) {
            parent = &candidate;
            break;
          }
        }
        ASSERT_NE(parent, nullptr) << "dangling parent id";
        EXPECT_GE(span.begin, parent->begin);
        EXPECT_LE(span.end, parent->end);
        EXPECT_EQ(span.trace_id, parent->trace_id);
      }
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << "duplicate span ids";
  }
}

// -- RPC trace trailer codec ----------------------------------------------

TEST(TraceTrailerTest, RoundTripsAndStaysWireCompatible) {
  dpu::RpcRequest request{dpu::ServiceId::kKv, dpu::KvOp::kPut, Buffer(Bytes(200, 0x5a))};
  BufferChain frame = dpu::SerializeRequestFrame(request);
  const size_t bare_size = frame.size();

  // Without a trailer the context is empty.
  auto bare = dpu::ParseRequestFrame(frame);
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(static_cast<bool>(bare->trace));

  const TraceContext ctx{/*trace_id=*/0x1234500042ull, /*parent_span=*/0x9876500011ull};
  dpu::AppendTraceTrailer(frame, ctx);
  EXPECT_GT(frame.size(), bare_size);

  // The trailer rides past the payload: the request decodes intact and
  // carries the context.
  auto parsed = dpu::ParseRequestFrame(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->trace, ctx);
  EXPECT_EQ(parsed->service, dpu::ServiceId::kKv);
  EXPECT_EQ(parsed->opcode, dpu::KvOp::kPut);
  EXPECT_EQ(parsed->payload, request.payload);
}

TEST(TraceTrailerTest, GarbageTailIsNotMistakenForAContext) {
  dpu::RpcRequest request{dpu::ServiceId::kKv, dpu::KvOp::kGet, Buffer(Bytes(8, 1))};
  BufferChain frame = dpu::SerializeRequestFrame(request);
  // A tail of the right length but the wrong magic must read as untraced.
  Bytes junk(20, 0xee);
  frame.Append(Buffer(std::move(junk)));
  auto parsed = dpu::ParseRequestFrame(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(static_cast<bool>(parsed->trace));
  EXPECT_EQ(parsed->payload, request.payload);
}

// -- Exporters -------------------------------------------------------------

std::vector<SpanRecord> SampleTree() {
  // rpc.call [0, 1000) with nvme.read [100, 400) and net.send [500, 600)
  // children: self-times rpc=600, nvme=300, net=100. A second root span
  // sits entirely in kApp.
  Tracer tracer(1);
  const SpanId call = tracer.Begin(Subsystem::kRpc, "rpc.call", 0);
  const SpanId read = tracer.Begin(Subsystem::kNvme, "nvme.read", 100);
  tracer.End(read, 400);
  const SpanId send = tracer.Begin(Subsystem::kNet, "net.send", 500);
  tracer.End(send, 600);
  tracer.End(call, 1000);
  const SpanId app = tracer.Begin(Subsystem::kApp, "workload", 2000);
  tracer.End(app, 2500);
  return tracer.spans();
}

TEST(CriticalPathTest, SelfTimeAttributionSumsToRootDuration) {
  const CriticalPathReport report = BuildCriticalPathReport(SampleTree());
  ASSERT_EQ(report.rows.size(), 2u);

  const CriticalPathRow& call = report.rows[0];
  EXPECT_EQ(call.root_name, "rpc.call");
  EXPECT_EQ(call.total_ns, 1000u);
  EXPECT_EQ(call.by_subsystem[static_cast<size_t>(Subsystem::kRpc)], 600u);
  EXPECT_EQ(call.by_subsystem[static_cast<size_t>(Subsystem::kNvme)], 300u);
  EXPECT_EQ(call.by_subsystem[static_cast<size_t>(Subsystem::kNet)], 100u);
  sim::Duration sum = 0;
  for (const sim::Duration d : call.by_subsystem) {
    sum += d;
  }
  EXPECT_EQ(sum, call.total_ns);

  const CriticalPathRow& app = report.rows[1];
  EXPECT_EQ(app.root_name, "workload");
  EXPECT_EQ(app.by_subsystem[static_cast<size_t>(Subsystem::kApp)], 500u);

  EXPECT_EQ(report.totals[static_cast<size_t>(Subsystem::kRpc)], 600u);
  EXPECT_EQ(report.totals[static_cast<size_t>(Subsystem::kApp)], 500u);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("rpc"), std::string::npos);
  EXPECT_NE(summary.find("nvme"), std::string::npos);
}

TEST(ChromeExportTest, EmitsCompleteEventsAndSkipsOpenSpans) {
  std::vector<SpanRecord> spans = SampleTree();
  SpanRecord open;
  open.id = 999;
  open.trace_id = 1;
  open.begin = 50;  // end stays kOpen
  open.name = "unfinished";
  spans.push_back(open);

  const std::string json = ToChromeTraceJson(spans);
  EXPECT_EQ(json.find("unfinished"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"nvme\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rpc.call\""), std::string::npos);
  // Four closed spans -> four complete events (the open one is skipped).
  size_t events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 4u);
}

TEST(EngineImportTest, EngineTalliesLandUnderEngineSubsystem) {
  sim::Engine engine;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(engine.Now() + 10 + i, [] {});
  }
  engine.Run();
  MetricsRegistry registry;
  ImportEngineStats(&registry, engine.stats());
  EXPECT_EQ(registry.CounterValue(Subsystem::kEngine, "scheduled"), 10u);
}

}  // namespace
}  // namespace hyperion::obs
