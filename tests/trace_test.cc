// Golden-trace regression (PR 4): the merged distributed trace of the
// seeded KV cluster workload is bit-identical for num_shards in {1, 2, 4} —
// the same determinism bar cluster_test pins for the ClusterResult, extended
// to every span the run emits. Also locks down the
// surrounding contracts: tracing never perturbs virtual time, cross-shard
// request trees stitch across node tracers, the critical-path report
// accounts for every root nanosecond, and the Chrome export carries one
// event per closed span.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dpu/cluster.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/testutil.h"

namespace hyperion::dpu {
namespace {

ClusterOptions TracedSmallCluster(uint32_t shards) {
  ClusterOptions options = testutil::SmallClusterOptions();
  options.trace = true;
  options.num_shards = shards;
  return options;
}

// Pinpoints the first differing span instead of dumping two full vectors.
::testing::AssertionResult TracesMatch(const std::vector<obs::SpanRecord>& got,
                                       const std::vector<obs::SpanRecord>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "span count " << got.size() << " != golden " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      return ::testing::AssertionFailure()
             << "first mismatch at span " << i << ": got {" << got[i].name << " origin "
             << got[i].origin << " [" << got[i].begin << ", " << got[i].end << ") id "
             << got[i].id << " parent " << got[i].parent << "} want {" << want[i].name
             << " origin " << want[i].origin << " [" << want[i].begin << ", " << want[i].end
             << ") id " << want[i].id << " parent " << want[i].parent << "}";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(GoldenTraceTest, TraceIsBitIdenticalAcrossShardLayoutsAndThreads) {
  // The first check sees the 1-shard golden and records its trace.
  std::vector<obs::SpanRecord> golden;
  const ClusterResult result = testutil::ExpectLayoutInvariant<KvCluster>(
      TracedSmallCluster(/*shards=*/1), [&](KvCluster& cluster) {
        if (golden.empty()) {
          golden = cluster.MergedTrace();
          ASSERT_FALSE(golden.empty());
          return;
        }
        EXPECT_TRUE(TracesMatch(cluster.MergedTrace(), golden))
            << "num_shards=" << cluster.num_shards();
      });
  EXPECT_EQ(result.failed_ops, 0u);
}

TEST(GoldenTraceTest, TracingDoesNotPerturbVirtualTime) {
  // The whole design constraint in one assertion: a traced run and an
  // untraced run of the same layout produce the same ClusterResult —
  // identical clocks, event counts, and latencies.
  ClusterOptions untraced = testutil::SmallClusterOptions();
  untraced.num_shards = 2;
  const ClusterResult without = KvCluster(untraced).Run();
  const ClusterResult with = KvCluster(TracedSmallCluster(/*shards=*/2)).Run();
  EXPECT_EQ(with, without);
}

TEST(GoldenTraceTest, EverySpanClosesAndParentsResolve) {
  KvCluster cluster(TracedSmallCluster(/*shards=*/4));
  cluster.Run();
  const std::vector<obs::SpanRecord> merged = cluster.MergedTrace();
  ASSERT_FALSE(merged.empty());

  std::vector<obs::SpanId> ids;
  ids.reserve(merged.size());
  for (const obs::SpanRecord& span : merged) {
    ids.push_back(span.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << "duplicate span ids";

  for (const obs::SpanRecord& span : merged) {
    ASSERT_NE(span.end, obs::SpanRecord::kOpen) << span.name << " left open";
    ASSERT_GE(span.end, span.begin) << span.name;
    ASSERT_NE(span.trace_id, 0u) << span.name;
    if (span.parent != 0) {
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), span.parent))
          << span.name << " has a dangling parent";
    }
  }
}

TEST(GoldenTraceTest, CrossNodeRequestsStitchIntoOneTree) {
  KvCluster cluster(TracedSmallCluster(/*shards=*/4));
  cluster.Run();
  const std::vector<obs::SpanRecord> merged = cluster.MergedTrace();

  // Index ids so we can chase serve -> parent call links.
  size_t cross_node_serves = 0;
  for (const obs::SpanRecord& span : merged) {
    if (span.name != "rpc.serve" || span.parent == 0) {
      continue;
    }
    for (const obs::SpanRecord& parent : merged) {
      if (parent.id == span.parent) {
        EXPECT_EQ(parent.trace_id, span.trace_id);
        if (parent.origin != span.origin) {
          ++cross_node_serves;  // the request crossed nodes yet stayed one tree
        }
        break;
      }
    }
  }
  // With 4 nodes and uniform key placement most ops are remote; the stitch
  // must actually fire, not just be wired up.
  EXPECT_GT(cross_node_serves, 0u);
}

TEST(GoldenTraceTest, CriticalPathReportAccountsForEveryRootNanosecond) {
  KvCluster cluster(TracedSmallCluster(/*shards=*/2));
  cluster.Run();
  const std::vector<obs::SpanRecord> merged = cluster.MergedTrace();
  const obs::CriticalPathReport report = obs::BuildCriticalPathReport(merged);
  ASSERT_FALSE(report.rows.empty());

  for (const obs::CriticalPathRow& row : report.rows) {
    sim::Duration sum = 0;
    for (const sim::Duration d : row.by_subsystem) {
      sum += d;
    }
    EXPECT_EQ(sum, row.total_ns) << row.root_name;
  }
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("critical path"), std::string::npos);
}

TEST(GoldenTraceTest, ChromeExportCarriesOneEventPerSpan) {
  KvCluster cluster(TracedSmallCluster(/*shards=*/1));
  cluster.Run();
  const std::vector<obs::SpanRecord> merged = cluster.MergedTrace();
  const std::string json = obs::ToChromeTraceJson(merged);
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  size_t events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, merged.size());
}

TEST(GoldenTraceTest, MetricsSnapshotIsReproducible) {
  // Same layout, same seed -> byte-identical registry JSON (counters,
  // histograms, and the parallel engine's tallies all land deterministically).
  auto snapshot = [] {
    KvCluster cluster(TracedSmallCluster(/*shards=*/2));
    cluster.Run();
    obs::MetricsRegistry registry;
    cluster.SnapshotMetrics(&registry);
    return registry.ToJson();
  };
  const std::string first = snapshot();
  EXPECT_EQ(first, snapshot());
  EXPECT_NE(first.find("\"rpc/"), std::string::npos);
  EXPECT_NE(first.find("\"engine/events_run\""), std::string::npos);
}

TEST(GoldenTraceTest, UntracedClusterKeepsTracersNull) {
  KvCluster cluster(testutil::SmallClusterOptions());
  EXPECT_EQ(cluster.tracer(0), nullptr);
  cluster.Run();
  EXPECT_TRUE(cluster.MergedTrace().empty());
}

}  // namespace
}  // namespace hyperion::dpu
