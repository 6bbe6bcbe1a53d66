// Engine fast-path microbenchmarks (PR 2).
//
// Measures raw schedule+run throughput of sim::Engine against a faithful
// replica of the pre-PR-2 engine (binary heap of by-value events with
// std::function callbacks), on two workloads:
//
//   E0/Engine/...       batches of mixed-delay events, ~6% past the wheel
//   E0/TimerChain/...   one self-rescheduling timer
//
// Each runs twice: `legacy` is the replica, `wheel_pool` the shipped engine
// (timing wheel and event pool, the only configuration). The row names keep
// their PR 2 suffixes (batch or chain length, then the retired wheel and
// pool knobs, both on) so they line up with BENCH_PR2.json and
// BENCH_PR7.json.
//
// Callbacks capture a 32-byte payload plus a pointer — beyond
// std::function's small-object buffer (16 bytes on libstdc++) and the 32
// bytes an engine entry holds inline, so every event takes a pooled node —
// which is the capture profile of the transport/RPC completions on the hot
// path.
//
// Reproduce the committed numbers (see EXPERIMENTS.md; the CI wall gate
// compares against BENCH_WALL.json):
//   ./bench/bench_engine --benchmark_repetitions=3 --benchmark_format=json

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/engine.h"

namespace {

using namespace hyperion;  // NOLINT

// Faithful replica of the pre-PR-2 engine so the speedup is measured
// against the real baseline, not a strawman.
class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  sim::SimTime Now() const { return now_; }

  void ScheduleAfter(sim::Duration delay, Callback fn) {
    queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
  }

  uint64_t Run() {
    uint64_t executed = 0;
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.when;
      ev.fn();
      ++executed;
    }
    return executed;
  }

 private:
  struct Event {
    sim::SimTime when;
    uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  sim::SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// 32-byte capture: past std::function's SBO, within EventFn's inline storage.
struct Capture {
  uint64_t a, b, c, d;
};

// Deterministic delay sequence; bulk of events inside the wheel
// horizon (~4.2 ms), a tail beyond it to exercise heap overflow+migration.
class DelaySequence {
 public:
  sim::Duration Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t r = state_ >> 33;
    if ((r & 0xf) == 0) {
      return 4'000'000 + r % 16'000'000;  // ~6%: 4-20 ms, beyond the horizon
    }
    return r % 4'000'000;  // within the horizon
  }

 private:
  uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

constexpr int64_t kBatch = 4096;
constexpr int64_t kChain = 16384;

// Schedules kBatch events with mixed delays, drains, repeats. Reported
// rate = events scheduled+executed per second of wall time.
template <typename EngineT>
void ScheduleRunLoop(benchmark::State& state, EngineT& engine) {
  DelaySequence delays;
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < kBatch; ++i) {
      Capture cap{static_cast<uint64_t>(i), sink, 3, 4};
      engine.ScheduleAfter(delays.Next(),
                           [cap, &sink] { sink += cap.a + cap.b + cap.c + cap.d; });
    }
    engine.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_LegacyEngine(benchmark::State& state) {
  LegacyEngine engine;
  ScheduleRunLoop(state, engine);
}

void BM_Engine(benchmark::State& state) {
  sim::Engine engine;
  ScheduleRunLoop(state, engine);
  state.counters["wheel_frac"] =
      engine.stats().scheduled == 0
          ? 0.0
          : static_cast<double>(engine.stats().wheel_scheduled) /
                static_cast<double>(engine.stats().scheduled);
  state.counters["inline_frac"] =
      engine.stats().scheduled == 0
          ? 0.0
          : static_cast<double>(engine.stats().inline_callbacks) /
                static_cast<double>(engine.stats().scheduled);
}

// Self-rescheduling timer chain: the steady-state shape of transport RTO /
// polling loops — one live event, pool and wheel fully warm.
template <typename EngineT>
void TimerChainLoop(benchmark::State& state, EngineT& engine) {
  uint64_t sink = 0;
  for (auto _ : state) {
    int64_t remaining = kChain;
    std::function<void()> step;  // legacy engine needs a copyable callback
    step = [&engine, &remaining, &sink, &step] {
      ++sink;
      if (--remaining > 0) {
        engine.ScheduleAfter(1'000, step);
      }
    };
    engine.ScheduleAfter(1'000, step);
    engine.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kChain);
}

void BM_LegacyTimerChain(benchmark::State& state) {
  LegacyEngine engine;
  TimerChainLoop(state, engine);
}

void BM_TimerChain(benchmark::State& state) {
  sim::Engine engine;
  TimerChainLoop(state, engine);
}

BENCHMARK(BM_LegacyEngine)->Name("E0/Engine/legacy/4096");
BENCHMARK(BM_Engine)->Name("E0/Engine/wheel_pool/4096/1/1");
BENCHMARK(BM_LegacyTimerChain)->Name("E0/TimerChain/legacy/16384");
BENCHMARK(BM_TimerChain)->Name("E0/TimerChain/wheel_pool/16384/1/1");

}  // namespace
