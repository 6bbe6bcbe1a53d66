// Unit tests for src/sim/parallel: conservative epoch-barrier sharding,
// (time, source, seq) merge order, typed channels, and layout-invariant
// determinism (the property the cluster experiments lean on).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "src/sim/parallel.h"

namespace hyperion::sim {
namespace {

ParallelEngineOptions Options(uint32_t shards, bool threads) {
  ParallelEngineOptions options;
  options.num_shards = shards;
  options.use_threads = threads;
  return options;
}

TEST(ParallelEngineTest, SingleShardRunsPostedMessagesInTimeOrder) {
  ParallelEngine engine(Options(1, false));
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
  ParallelEngine engine(Options(2, false));
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
  // merge must order them (source, seq), never by arrival or thread timing.
  ParallelEngine engine(Options(2, false));
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

TEST(ParallelChannelTest, DeliversTypedValuesWithTimestamps) {
  ParallelEngine engine(Options(2, true));
  const uint32_t src = engine.AddSource(0);
  std::vector<std::pair<uint64_t, SimTime>> got;
  Channel<uint64_t> channel(&engine, src, 1,
                            [&got](uint64_t v, SimTime when) { got.push_back({v, when}); });
  channel.Send(250, 7);
  channel.Send(120, 9);
  engine.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<uint64_t, SimTime>{9, 120}));
  EXPECT_EQ(got[1], (std::pair<uint64_t, SimTime>{7, 250}));
}

// Ring of logical actors forwarding a token; the recorded trace is the full
// observable behaviour. Run under different shard layouts and threading
// modes: the trace must be bit-identical.
struct RingTrace {
  std::vector<std::vector<std::pair<SimTime, uint64_t>>> per_actor;
  uint64_t messages = 0;

  bool operator==(const RingTrace&) const = default;
};

RingTrace RunRing(uint32_t num_actors, uint32_t num_shards, bool threads) {
  ParallelEngine engine(Options(num_shards, threads));
  RingTrace trace;
  trace.per_actor.resize(num_actors);
  std::vector<std::unique_ptr<Channel<uint64_t>>> ring(num_actors);
  for (uint32_t a = 0; a < num_actors; ++a) {
    const uint32_t src = engine.AddSource(a * num_shards / num_actors);
    const uint32_t next = (a + 1) % num_actors;
    const uint32_t next_shard = next * num_shards / num_actors;
    ring[a] = std::make_unique<Channel<uint64_t>>(
        &engine, src, next_shard, [&engine, &ring, &trace, next](uint64_t token, SimTime when) {
          trace.per_actor[next].push_back({when, token});
          if (token < 64) {
            // Variable hop latency (>= lookahead) so epochs carry different
            // message counts in different windows.
            ring[next]->Send(when + 100 + token % 7, token + 1);
          }
        });
  }
  // Two concurrent tokens so distinct sources are in flight at once.
  ring[0]->Send(1000, 0);
  ring[num_actors / 2]->Send(1003, 1);
  engine.Run();
  trace.messages = engine.stats().messages;
  return trace;
}

TEST(ParallelEngineTest, RingTraceIsIdenticalAcrossLayoutsAndThreading) {
  const RingTrace golden = RunRing(4, 1, false);
  EXPECT_GT(golden.messages, 100u);
  EXPECT_EQ(RunRing(4, 1, true), golden);
  EXPECT_EQ(RunRing(4, 2, false), golden);
  EXPECT_EQ(RunRing(4, 2, true), golden);
  EXPECT_EQ(RunRing(4, 4, false), golden);
  EXPECT_EQ(RunRing(4, 4, true), golden);
}

TEST(ParallelEngineTest, StatsCountEpochsAndLargestExchange) {
  ParallelEngine engine(Options(2, true));
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
  // nothing to shard: one window covers the whole run, every Post
  // self-delivers without staging, and the exchange counters stay zero —
  // with and without the worker-thread path requested.
  for (const bool threads : {false, true}) {
    SCOPED_TRACE(threads ? "use_threads=true" : "use_threads=false");
    ParallelEngine engine(Options(1, threads));
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
}

TEST(ParallelEngineTest, PerPairLookaheadIsDirectional) {
  // Declaring a slow link one way must not narrow the other direction's
  // windows: the per-pair matrix keeps each directed edge's lookahead.
  ParallelEngine engine(Options(2, false));
  engine.DeclareLinkLatency(0, 1, 5000);
  EXPECT_EQ(engine.lookahead(0, 1), 5000u);
  EXPECT_EQ(engine.lookahead(1, 0), 100u);  // floor: no declared link
  EXPECT_EQ(engine.lookahead(), 5000u);     // global = min over *declared* links
}

TEST(ParallelEngineTest, MessagesPostedFromEventsRespectLookahead) {
  // A message posted *during* a window lands at least lookahead later and
  // still executes at exactly its requested virtual time.
  ParallelEngine engine(Options(2, true));
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
