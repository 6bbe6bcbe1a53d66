// Unit tests for src/sim/parallel: conservative epoch-barrier sharding,
// (time, source, seq) merge order, the barrier schedule, and
// layout-invariant determinism (the property the cluster experiments lean
// on).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/dpu/cluster.h"
#include "src/sim/parallel.h"
#include "tests/testutil.h"

namespace hyperion::sim {
namespace {

TEST(ParallelEngineTest, SingleShardRunsPostedMessagesInTimeOrder) {
  ParallelEngine engine(1);
  const uint32_t src = engine.AddSource(0);
  std::vector<int> order;
  engine.Post(src, 0, 300, [&order] { order.push_back(3); });
  engine.Post(src, 0, 100, [&order] { order.push_back(1); });
  engine.Post(src, 0, 200, [&order] { order.push_back(2); });
  EXPECT_EQ(engine.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.stats().messages, 3u);
  EXPECT_EQ(engine.stats().cross_shard_messages, 0u);
}

TEST(ParallelEngineTest, LookaheadIsMinimumDeclaredLatency) {
  ParallelEngine engine(2);
  EXPECT_EQ(engine.lookahead(), 100u);  // floor until a link is declared
  engine.DeclareLinkLatency(500);
  EXPECT_EQ(engine.lookahead(), 500u);
  engine.DeclareLinkLatency(1500);  // slower link cannot raise the minimum
  EXPECT_EQ(engine.lookahead(), 500u);
  engine.DeclareLinkLatency(250);
  EXPECT_EQ(engine.lookahead(), 250u);
}

TEST(ParallelEngineTest, SameTimestampBreaksTiesBySourceThenSeq) {
  // Two sources on different shards post to shard 0 at identical times; the
  // merge must order them (source, seq), never by arrival or window order.
  ParallelEngine engine(2);
  const uint32_t first = engine.AddSource(0);
  const uint32_t second = engine.AddSource(1);
  std::vector<std::pair<uint32_t, int>> order;
  engine.Post(second, 0, 1000, [&order] { order.push_back({1, 0}); });
  engine.Post(second, 0, 1000, [&order] { order.push_back({1, 1}); });
  engine.Post(first, 0, 1000, [&order] { order.push_back({0, 0}); });
  engine.Post(first, 0, 1000, [&order] { order.push_back({0, 1}); });
  engine.Run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], (std::pair<uint32_t, int>{0, 0}));
  EXPECT_EQ(order[1], (std::pair<uint32_t, int>{0, 1}));
  EXPECT_EQ(order[2], (std::pair<uint32_t, int>{1, 0}));
  EXPECT_EQ(order[3], (std::pair<uint32_t, int>{1, 1}));
  // Only `second`'s messages cross shards; `first` posts shard-locally.
  EXPECT_EQ(engine.stats().cross_shard_messages, 2u);
  EXPECT_EQ(engine.stats().messages, 4u);
}

// Ring of logical actors forwarding a token; the recorded trace is the full
// observable behaviour. Run under different shard layouts: the trace must be
// bit-identical.
struct RingTrace {
  std::vector<std::vector<std::pair<SimTime, uint64_t>>> per_actor;
  uint64_t messages = 0;

  bool operator==(const RingTrace&) const = default;
};

RingTrace RunRing(uint32_t num_actors, uint32_t num_shards,
                  ParallelEngineStats* stats = nullptr) {
  ParallelEngine engine(num_shards);
  RingTrace trace;
  trace.per_actor.resize(num_actors);
  auto shard_of = [num_actors, num_shards](uint32_t a) { return a * num_shards / num_actors; };
  std::vector<uint32_t> sources;
  for (uint32_t a = 0; a < num_actors; ++a) {
    sources.push_back(engine.AddSource(shard_of(a)));
  }
  // Actor `from` hands `token` to the next actor, which records it at `when`.
  std::function<void(uint32_t, SimTime, uint64_t)> send = [&](uint32_t from, SimTime when,
                                                              uint64_t token) {
    const uint32_t next = (from + 1) % num_actors;
    engine.Post(sources[from], shard_of(next), when, [&trace, &send, next, when, token] {
      trace.per_actor[next].push_back({when, token});
      if (token < 64) {
        // Variable hop latency (>= lookahead) so epochs carry different
        // message counts in different windows.
        send(next, when + 100 + token % 7, token + 1);
      }
    });
  };
  // Two concurrent tokens so distinct sources are in flight at once.
  send(0, 1000, 0);
  send(num_actors / 2, 1003, 1);
  engine.Run();
  trace.messages = engine.stats().messages;
  if (stats != nullptr) {
    *stats = engine.stats();
  }
  return trace;
}

TEST(ParallelEngineTest, RingTraceIsIdenticalAcrossLayouts) {
  const RingTrace golden = RunRing(4, 1);
  EXPECT_GT(golden.messages, 100u);
  EXPECT_EQ(RunRing(4, 1), golden);
  EXPECT_EQ(RunRing(4, 2), golden);
  EXPECT_EQ(RunRing(4, 4), golden);
}

// Every ParallelEngineStats field in declaration order, so a golden
// mismatch prints which counter moved.
std::vector<uint64_t> StatsFields(const ParallelEngineStats& s) {
  return {s.epochs,     s.events_run,     s.messages,    s.cross_shard_messages,
          s.max_outbox, s.self_delivered, s.windows_run, s.windows_skipped};
}

TEST(ParallelEngineTest, BarrierScheduleMatchesGolden) {
  // The layout oracles compare results, which a barrier moved to another
  // epoch cannot change. These literals pin the schedule itself: epochs,
  // windows run and skipped, and the most cross-shard posts between two
  // barriers, for the ring at 2 and 4 shards and for a 2-shard KvCluster.
  ParallelEngineStats stats;
  RunRing(4, 2, &stats);
  EXPECT_EQ(StatsFields(stats), (std::vector<uint64_t>{47, 129, 129, 64, 2, 65, 75, 19}));
  RunRing(4, 4, &stats);
  EXPECT_EQ(StatsFields(stats), (std::vector<uint64_t>{65, 129, 129, 129, 2, 0, 129, 131}));
  dpu::ClusterOptions options = testutil::SmallClusterOptions();
  options.num_shards = 2;
  dpu::KvCluster cluster(options);
  cluster.Run();
  EXPECT_EQ(StatsFields(cluster.engine().stats()),
            (std::vector<uint64_t>{86, 136, 128, 56, 2, 72, 90, 82}));
}

TEST(ParallelEngineTest, StatsCountEpochsAndLargestExchange) {
  ParallelEngine engine(2);
  const uint32_t a = engine.AddSource(0);
  std::vector<SimTime> deliveries;
  for (SimTime t = 1000; t < 2000; t += 100) {
    engine.Post(a, 1, t, [&deliveries, &engine] {
      deliveries.push_back(engine.shard(1).Now());
    });
  }
  engine.Run();
  ASSERT_EQ(deliveries.size(), 10u);
  EXPECT_TRUE(std::is_sorted(deliveries.begin(), deliveries.end()));
  EXPECT_GE(engine.stats().epochs, 1u);
  EXPECT_GE(engine.stats().max_outbox, 1u);
  EXPECT_EQ(engine.stats().messages, 10u);
  EXPECT_EQ(engine.stats().events_run, 10u);
}

TEST(ParallelEngineTest, SingleShardStatsStayDegenerate) {
  // The sharding machinery must cost (and count) nothing when there is
  // nothing to shard: one window covers the whole run, every Post is
  // same-shard, and the cross-shard counters stay zero.
  ParallelEngine engine(1);
  const uint32_t src = engine.AddSource(0);
  int fired = 0;
  for (SimTime t = 100; t <= 1000; t += 100) {
    engine.Post(src, 0, t, [&fired] { ++fired; });
  }
  engine.shard(0).ScheduleAt(50, [&fired] { ++fired; });  // plain local event
  EXPECT_EQ(engine.Run(), 11u);
  EXPECT_EQ(fired, 11);
  const ParallelEngineStats& stats = engine.stats();
  EXPECT_EQ(stats.epochs, 1u);
  EXPECT_EQ(stats.windows_run, 1u);
  EXPECT_EQ(stats.windows_skipped, 0u);
  EXPECT_EQ(stats.max_outbox, 0u);
  EXPECT_EQ(stats.cross_shard_messages, 0u);
  EXPECT_EQ(stats.self_delivered, 10u);
  EXPECT_EQ(stats.messages, 10u);
  EXPECT_EQ(stats.events_run, 11u);
}

TEST(ParallelEngineTest, EveryShardRunsOnTheCallingThread) {
  // Four shards, each with a local timer chain and a ping-pong partner on
  // another shard: many epochs, every shard active, and every event —
  // local or posted from another shard — must run on this thread. Each
  // shard records into its own list, so the recording itself is race-free
  // however the windows are executed.
  constexpr uint32_t kShards = 4;
  ParallelEngine engine(kShards);
  std::vector<uint32_t> sources;
  for (uint32_t s = 0; s < kShards; ++s) {
    sources.push_back(engine.AddSource(s));
  }
  using ThreadId = decltype(std::this_thread::get_id());
  std::vector<std::vector<ThreadId>> ran_on(kShards);
  std::function<void(uint32_t, int)> ping = [&](uint32_t s, int hops) {
    ran_on[s].push_back(std::this_thread::get_id());
    if (hops == 0) {
      return;
    }
    const uint32_t peer = s ^ 1;  // 0 <-> 1, 2 <-> 3
    engine.Post(sources[s], peer, engine.shard(s).Now() + 150,
                [&ping, peer, hops] { ping(peer, hops - 1); });
  };
  std::function<void(uint32_t, int)> tick = [&](uint32_t s, int left) {
    ran_on[s].push_back(std::this_thread::get_id());
    if (left > 0) {
      engine.shard(s).ScheduleAfter(70, [&tick, s, left] { tick(s, left - 1); });
    }
  };
  for (uint32_t s = 0; s < kShards; ++s) {
    engine.shard(s).ScheduleAt(10 + s, [&ping, s] { ping(s, 20); });
    engine.shard(s).ScheduleAt(20 + s, [&tick, s] { tick(s, 30); });
  }
  EXPECT_EQ(engine.Run(), uint64_t{kShards} * (21 + 31));
  EXPECT_GT(engine.stats().epochs, 1u);
  EXPECT_GT(engine.stats().cross_shard_messages, 0u);
  const ThreadId caller = std::this_thread::get_id();
  for (uint32_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(ran_on[s].size(), 21u + 31u);
    for (const ThreadId id : ran_on[s]) {
      ASSERT_EQ(id, caller);
    }
  }
}

TEST(ParallelEngineTest, PostIntoADestinationsPastDiesAtThePost) {
  // Shard 1 has run to 10,000 ns while shard 0 is still at 0, so a post
  // from shard 0 for 5,000 ns clears the lookahead check but lies in the
  // destination's past. Post itself must refuse it, not a later Run().
  ParallelEngine engine(2);
  const uint32_t src = engine.AddSource(0);
  engine.shard(1).ScheduleAt(10000, [] {});
  engine.Run();
  ASSERT_EQ(engine.shard(1).Now(), 10000u);
  EXPECT_DEATH(engine.Post(src, 1, 5000, [] {}), "cannot schedule into the past");
}

TEST(ParallelEngineTest, MessagesPostedFromEventsRespectLookahead) {
  // A message posted *during* a window lands at least lookahead later and
  // still executes at exactly its requested virtual time.
  ParallelEngine engine(2);
  const uint32_t a = engine.AddSource(0);
  const uint32_t b = engine.AddSource(1);
  std::vector<std::pair<int, SimTime>> log;
  engine.Post(a, 1, 500, [&] {
    log.push_back({1, engine.shard(1).Now()});
    engine.Post(b, 0, engine.shard(1).Now() + 100, [&] {
      log.push_back({2, engine.shard(0).Now()});
    });
  });
  engine.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<int, SimTime>{1, 500}));
  EXPECT_EQ(log[1], (std::pair<int, SimTime>{2, 600}));
}

}  // namespace
}  // namespace hyperion::sim
