// Unit tests for src/sim: event engine determinism, histogram accuracy,
// energy model budgets.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/sim/energy.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace hyperion::sim {
namespace {

// -- time helpers -------------------------------------------------------

TEST(TimeTest, TransferTimeMatchesLineRate) {
  // 1250 bytes at 100 Gbps = 10000 bits / 100e9 bps = 100 ns.
  EXPECT_EQ(TransferTime(1250, 100.0), 100u);
}

TEST(TimeTest, CyclesToTimeAtKnownClock) {
  // 250 cycles at 250 MHz = 1 us.
  EXPECT_EQ(CyclesToTime(250, 250.0), 1000u);
}

// -- Engine ---------------------------------------------------------------

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAfter(30, [&] { order.push_back(3); });
  engine.ScheduleAfter(10, [&] { order.push_back(1); });
  engine.ScheduleAfter(20, [&] { order.push_back(2); });
  EXPECT_EQ(engine.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.Now(), 30u);
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.ScheduleAfter(100, [&order, i] { order.push_back(i); });
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAfter(10, [&] {
    ++fired;
    engine.ScheduleAfter(10, [&] { ++fired; });
  });
  EXPECT_EQ(engine.Run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.Now(), 20u);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.ScheduleAfter(10, [&] { ++fired; });
  engine.ScheduleAfter(100, [&] { ++fired; });
  EXPECT_EQ(engine.RunUntil(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.Now(), 50u);
  EXPECT_EQ(engine.PendingEvents(), 1u);
}

TEST(EngineTest, AdvanceMovesClockWithoutEvents) {
  Engine engine;
  engine.Advance(1234);
  EXPECT_EQ(engine.Now(), 1234u);
  EXPECT_TRUE(engine.Empty());
}

// -- Histogram -------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (uint64_t v = 0; v < 31; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_EQ(h.count(), 31u);
}

TEST(HistogramTest, PercentilesWithinRelativeError) {
  Histogram h;
  for (uint64_t v = 1; v <= 100000; ++v) {
    h.Record(v);
  }
  // Log-bucketed: ~3% relative error allowed.
  EXPECT_NEAR(static_cast<double>(h.P50()), 50000.0, 50000.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.P99()), 99000.0, 99000.0 * 0.04);
  EXPECT_NEAR(h.Mean(), 50000.5, 1.0);
}

TEST(HistogramTest, PercentileNeverExceedsMax) {
  Histogram h;
  h.Record(7);
  h.Record(1000000);
  EXPECT_LE(h.P999(), 1000000u);
  EXPECT_EQ(h.max(), 1000000u);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

// Merge is the per-shard -> cluster aggregation path of the sharded
// simulation: recording a stream into one histogram and recording its
// partitions into K histograms then merging must be indistinguishable —
// counts, extremes, mean, and every percentile.
TEST(HistogramTest, MergeOfShardsEqualsGroundTruth) {
  // Deterministic skewed stream (xorshift), spanning several buckets.
  uint64_t x = 0x2545F4914F6CDD1Dull;
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(1 + x % (1ull << (8 + i % 16)));
  }
  Histogram ground_truth;
  Histogram shards[4];
  for (size_t i = 0; i < values.size(); ++i) {
    ground_truth.Record(values[i]);
    shards[i % 4].Record(values[i]);
  }
  Histogram merged;
  for (const Histogram& shard : shards) {
    merged.Merge(shard);
  }
  EXPECT_EQ(merged.count(), ground_truth.count());
  EXPECT_EQ(merged.min(), ground_truth.min());
  EXPECT_EQ(merged.max(), ground_truth.max());
  EXPECT_DOUBLE_EQ(merged.Mean(), ground_truth.Mean());
  for (double q = 0.0; q <= 1.0; q += 0.001) {
    ASSERT_EQ(merged.Percentile(q), ground_truth.Percentile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeOrderAndPartitioningDoNotMatter) {
  Histogram even_odd[2];
  Histogram halves[2];
  for (uint64_t v = 1; v <= 1000; ++v) {
    even_odd[v % 2].Record(v * 17);
    halves[v > 500].Record(v * 17);
  }
  Histogram a;
  a.Merge(even_odd[0]);
  a.Merge(even_odd[1]);
  Histogram b;
  b.Merge(halves[1]);  // reversed order on a different partitioning
  b.Merge(halves[0]);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.Percentile(q), b.Percentile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram h;
  h.Record(42);
  h.Record(4242);
  Histogram empty;
  h.Merge(empty);  // no-op
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 4242u);
  Histogram fresh;
  fresh.Merge(h);  // merge into empty == copy
  EXPECT_EQ(fresh.count(), 2u);
  EXPECT_EQ(fresh.min(), 42u);
  EXPECT_EQ(fresh.max(), 4242u);
  EXPECT_EQ(fresh.P50(), h.P50());
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// -- Counters ---------------------------------------------------------------

TEST(CountersTest, AddAndGet) {
  Counters c;
  c.Add("bytes", 100);
  c.Add("bytes", 50);
  c.Increment("ops");
  EXPECT_EQ(c.Get("bytes"), 150u);
  EXPECT_EQ(c.Get("ops"), 1u);
  EXPECT_EQ(c.Get("missing"), 0u);
}

TEST(CountersTest, SnapshotIsSorted) {
  Counters c;
  c.Add("zeta", 1);
  c.Add("alpha", 2);
  auto snap = c.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "alpha");
  EXPECT_EQ(snap[1].first, "zeta");
}

// -- Energy ---------------------------------------------------------------

TEST(EnergyTest, IdleDrawIntegratesOverTime) {
  EnergyModel m;
  m.AddComponent({"x", 10.0, 0.0});
  // 10 W for 2 s = 20 J.
  EXPECT_DOUBLE_EQ(m.TotalJoules(2 * kSecond), 20.0);
}

TEST(EnergyTest, ActiveDrawChargesBusyTime) {
  EnergyModel m;
  const size_t id = m.AddComponent({"x", 0.0, 100.0});
  m.Busy(id, kSecond / 2);
  EXPECT_DOUBLE_EQ(m.TotalJoules(kSecond), 50.0);
}

TEST(EnergyTest, DpuEnvelopeMatchesPaper) {
  // The paper quotes ~230 W max TDP for Hyperion vs ~1,600 W for the 1U
  // server; the models must reproduce those envelopes.
  EnergyModel dpu = MakeDpuEnergyModel();
  EnergyModel server = MakeServerEnergyModel();
  EXPECT_NEAR(dpu.PeakWatts(), 230.0, 5.0);
  EXPECT_NEAR(server.PeakWatts(), 1600.0, 20.0);
  const double ratio = server.PeakWatts() / dpu.PeakWatts();
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 8.0);
}

TEST(EnergyTest, IdleIsBelowPeak) {
  EnergyModel dpu = MakeDpuEnergyModel();
  EXPECT_LT(dpu.IdleWatts(), dpu.PeakWatts());
}

}  // namespace
}  // namespace hyperion::sim

namespace coverage_extras {

using namespace hyperion::sim;  // NOLINT

TEST(CountersTest, ResetClearsEverything) {
  Counters c;
  c.Add("x", 5);
  c.Reset();
  EXPECT_EQ(c.Get("x"), 0u);
  EXPECT_TRUE(c.Snapshot().empty());
}

TEST(HistogramTest, SummaryIsHumanReadable) {
  Histogram h;
  h.Record(1000);
  h.Record(2000);
  const std::string summary = h.SummaryNs();
  EXPECT_NE(summary.find("n=2"), std::string::npos);
  EXPECT_NE(summary.find("p50"), std::string::npos);
}

TEST(EngineTest, ScheduleAtAbsoluteTime) {
  Engine engine;
  engine.Advance(100);
  int fired_at = 0;
  engine.ScheduleAt(250, [&] { fired_at = static_cast<int>(engine.Now()); });
  engine.Run();
  EXPECT_EQ(fired_at, 250);
}

// -- Engine fast path (PR 2) -------------------------------------------

TEST(EngineFastPathTest, MixedWorkloadRunsInScheduleKeyOrder) {
  // The (when, seq) key admits exactly one execution order, with seq taken
  // at schedule time. So the property that fully specifies the engine is:
  // every scheduled event runs exactly once, at its due time, and the
  // executed (time, schedule index) pairs are strictly increasing. The
  // workload mixes bursts of same-time ties, delays inside and far beyond
  // the wheel horizon, and events scheduling events.
  Engine engine;
  std::vector<SimTime> due;                     // by schedule index
  std::vector<std::pair<SimTime, size_t>> ran;  // (time, schedule index)
  // An event with a nonzero `follow_up` schedules one more that far out.
  std::function<void(SimTime, Duration)> schedule = [&](SimTime when, Duration follow_up) {
    engine.ScheduleAt(when, [&, follow_up, index = due.size()] {
      ran.emplace_back(engine.Now(), index);
      if (follow_up != 0) {
        schedule(engine.Now() + follow_up, 0);
      }
    });
    due.push_back(when);
  };
  uint64_t lcg = 12345;
  for (int i = 0; i < 400; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t r = lcg >> 33;
    // ~1/4 of events land far past the wheel horizon (~4.2 ms).
    const Duration delay = (r % 4 == 0) ? 10'000'000 + r % 50'000'000 : r % 3'000'000;
    // 500 ns follow-ups join the slot being drained; 3 ms follow-ups of
    // far events enter the wheel while earlier heap entries still wait.
    schedule(delay, i % 7 == 0 ? 500 : i % 7 == 1 ? 3'000'000 : 0);
  }
  for (int i = 0; i < 32; ++i) {
    schedule(2'000'000, 0);  // same-time ties in a burst
  }
  const uint64_t executed = engine.Run();  // schedules follow-ups: read due after
  EXPECT_EQ(executed, due.size());
  ASSERT_EQ(ran.size(), due.size());
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].first, due[ran[i].second]) << "event " << ran[i].second << " ran off time";
    if (i > 0) {
      EXPECT_LT(ran[i - 1], ran[i]) << "key order violated at " << i;
    }
  }
  EXPECT_GT(engine.stats().wheel_scheduled, 0u);
  EXPECT_GT(engine.stats().heap_scheduled, 0u);
}

TEST(EngineFastPathTest, HeapOverflowInterleavesWithWheelInOrder) {
  Engine engine;  // defaults: wheel on, ~4.2 ms horizon
  std::vector<int> order;
  engine.ScheduleAfter(10'000'000, [&] { order.push_back(100); });  // past the horizon
  for (int i = 1; i <= 9; ++i) {  // in-wheel events pulling now_ forward
    engine.ScheduleAfter(i * 1'000'000, [&order, i] { order.push_back(i); });
  }
  // Horizon is 512 x 8192 ns ~= 4.19 ms: 1-4 ms are wheel-eligible, the
  // rest (5-9 ms and the 10 ms target) overflow to the heap. Extraction
  // compares the wheel front against the heap top by full key, so overflow
  // events execute in exact global order without migrating containers.
  EXPECT_EQ(engine.stats().wheel_scheduled, 4u);
  EXPECT_EQ(engine.stats().heap_scheduled, 6u);
  EXPECT_EQ(engine.Run(), 10u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}));
}

TEST(EngineFastPathTest, RunUntilWithPooledEvents) {
  Engine engine;
  int fired = 0;
  // Big non-entry-inline captures force the overflow-node path; two waves
  // through the same pool pin release + reuse across RunUntil calls.
  struct Fat {
    int* fired;
    char pad[Engine::kEntryInlineBytes];
  };
  const Fat fat{&fired, {}};
  for (int i = 0; i < 100; ++i) {
    engine.ScheduleAfter(10 + i, [fat] { ++*fat.fired; });
  }
  EXPECT_EQ(engine.RunUntil(59), 50u);
  for (int i = 0; i < 100; ++i) {
    engine.ScheduleAfter(1'000 + i, [fat] { ++*fat.fired; });
  }
  EXPECT_EQ(engine.RunUntil(10'000), 150u);
  EXPECT_EQ(fired, 200);
  EXPECT_TRUE(engine.Empty());
  // Steady-state slab reuse: 200 in-flight node events fit the first slab.
  EXPECT_EQ(engine.stats().pool_slabs, 1u);
}

TEST(EngineFastPathTest, SmallTrivialCallbacksNeverTouchThePool) {
  Engine engine;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    engine.ScheduleAfter(10 + i, [&fired] { ++fired; });
  }
  EXPECT_EQ(engine.Run(), 1000u);
  EXPECT_EQ(fired, 1000);
  // Small trivially copyable captures live inside the 64-byte ready-queue
  // entry itself: no overflow node, so no slab is ever allocated.
  EXPECT_EQ(engine.stats().pool_slabs, 0u);
  EXPECT_EQ(engine.stats().inline_callbacks, 1000u);
}

TEST(EngineFastPathTest, StatsClassifyCallbacks) {
  Engine engine;
  int sink = 0;
  engine.ScheduleAfter(1, [&sink] { ++sink; });  // small capture: inline
  struct Big {
    int* sink;
    char pad[EventFn::kInlineBytes];
  } big{&sink, {}};
  engine.ScheduleAfter(2, [big] { ++*big.sink; });  // > kInlineBytes: boxed
  EXPECT_EQ(engine.stats().inline_callbacks, 1u);
  EXPECT_EQ(engine.stats().boxed_callbacks, 1u);
  engine.Run();
  EXPECT_EQ(sink, 2);
}

TEST(EventFnTest, InlineAndBoxedBothInvoke) {
  int calls = 0;
  EventFn small([&calls] { ++calls; });
  EXPECT_TRUE(small.is_inline());
  small();
  struct Huge {
    int* calls;
    char pad[EventFn::kInlineBytes];
  } huge{&calls, {}};
  EventFn big([huge] { ++*huge.calls; });
  EXPECT_FALSE(big.is_inline());
  big();
  EXPECT_EQ(calls, 2);

  // Move transfers the callable; the source becomes empty.
  EventFn moved = std::move(big);
  moved();
  EXPECT_EQ(calls, 3);
  EXPECT_FALSE(static_cast<bool>(big));  // NOLINT(bugprone-use-after-move)
}

TEST(EngineFastPathTest, SameTimeFifoHoldsAcrossSlotGeometries) {
  // Property: at equal timestamps execution order is insertion order, for
  // every storage path an entry can take. The two near clusters each pile
  // 500 entries into one 8.192 us slot (express lane, calendar region,
  // then spill past kSlotCap): the one at 0 lands in the slot the engine
  // drains from the start, the one at 100 us is pulled fresh. The far
  // cluster lies beyond the ~4.2 ms wheel horizon (the overflow heap).
  // Same-time follow-ups scheduled from callbacks join the slot being
  // drained near and tie with heap entries far.
  constexpr SimTime kFar = 10'000'000;
  static_assert(kFar > (Engine::kSlotCount << Engine::kSlotShift));
  Engine engine;
  std::vector<std::pair<SimTime, int>> order;
  uint64_t state = 12345;
  int id = 0;
  for (SimTime base : {SimTime{0}, SimTime{100'000}, kFar}) {
    for (int i = 0; i < 500; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const SimTime when = base + 10 + (state >> 33) % 40;  // heavy same-time collisions
      engine.ScheduleAt(when, [&order, when, my = id++] { order.push_back({when, my}); });
    }
    // Each follow-up must run after every already-pending event at its
    // timestamp. Its id is taken when it is scheduled (mid-run), so ids
    // track seq assignment order globally.
    for (SimTime when : {base + 15, base + 25}) {
      engine.ScheduleAt(when, [&order, &engine, &id, when, my = id++] {
        order.push_back({when, my});
        engine.ScheduleAt(when, [&order, when, my2 = id++] { order.push_back({when, my2}); });
      });
    }
  }
  EXPECT_EQ(engine.Run(), 1512u);
  ASSERT_EQ(order.size(), 1512u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1].first, order[i].first) << "time order violated at " << i;
    if (order[i - 1].first == order[i].first) {
      EXPECT_LT(order[i - 1].second, order[i].second) << "FIFO violated at " << i;
    }
  }
  EXPECT_GT(engine.stats().wheel_scheduled, 0u);
  EXPECT_GT(engine.stats().heap_scheduled, 0u);
}

TEST(EngineFastPathTest, PoolExhaustionGrowsOnceAndReuses) {
  // 1000 node-path events need ceil(1000/256) = 4 slabs; a second wave of
  // the same size must reuse the freed nodes and allocate nothing new.
  Engine engine;
  struct Fat {
    int* fired;
    char pad[Engine::kEntryInlineBytes];  // too big for entry-inline storage
  };
  int fired = 0;
  auto wave = [&engine, &fired](SimTime base) {
    for (int i = 0; i < 1000; ++i) {
      Fat fat{&fired, {}};
      engine.ScheduleAt(base + i, [fat] { ++*fat.fired; });
    }
  };
  wave(10);
  EXPECT_EQ(engine.Run(), 1000u);
  const uint64_t slabs_after_first = engine.stats().pool_slabs;
  EXPECT_EQ(slabs_after_first, 4u);
  wave(engine.Now() + 10);
  EXPECT_EQ(engine.Run(), 1000u);
  EXPECT_EQ(fired, 2000);
  EXPECT_EQ(engine.stats().pool_slabs, slabs_after_first) << "pool did not reuse freed nodes";
}

TEST(EngineFastPathTest, DestructorReleasesPendingEvents) {
  // Pending inline and boxed events are destroyed cleanly (ASan-checked).
  auto token = std::make_shared<int>(7);
  {
    Engine engine;
    engine.ScheduleAfter(5, [token] { (void)*token; });
    engine.ScheduleAfter(100'000'000, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace coverage_extras
