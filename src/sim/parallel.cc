#include "src/sim/parallel.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::sim {

ParallelEngine::ParallelEngine(uint32_t num_shards) : num_shards_(num_shards) {
  CHECK_GT(num_shards_, 0u);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    shards_.push_back(std::make_unique<Engine>());
  }
  next_.assign(num_shards_, Engine::kNever);
  horizon_.assign(num_shards_, Engine::kNever);
}

Engine& ParallelEngine::shard(uint32_t s) {
  CHECK_LT(s, shards_.size());
  return *shards_[s];
}

uint32_t ParallelEngine::AddSource(uint32_t shard) {
  CHECK_LT(shard, shards_.size());
  CHECK(!running_) << "register sources before Run()";
  sources_.push_back(Source{shard, 0});
  return static_cast<uint32_t>(sources_.size() - 1);
}

void ParallelEngine::DeclareLinkLatency(Duration min_latency) {
  CHECK_GE(min_latency, kLookaheadFloor) << "link latency below the lookahead floor";
  CHECK(!running_) << "declare link latencies before Run()";
  declared_ = std::min(declared_, min_latency);
}

void ParallelEngine::Post(uint32_t source, uint32_t dst_shard, SimTime when, EventFn fn) {
  CHECK_LT(source, sources_.size());
  CHECK_LT(dst_shard, shards_.size());
  Source& src = sources_[source];
  // Conservative-safety invariant: nothing posted during the current window
  // may take effect before the lookahead.
  CHECK_GE(when, shards_[src.shard]->Now() + lookahead())
      << "cross-shard message inside the lookahead window";
  ++stats_.messages;
  if (dst_shard == src.shard) {
    ++stats_.self_delivered;
  } else {
    ++stats_.cross_shard_messages;
    ++posted_since_barrier_;
  }
  shards_[dst_shard]->ScheduleMessage(when, source, src.next_seq++, std::move(fn));
}

SimTime ParallelEngine::ComputeNextTimes() {
  SimTime global = Engine::kNever;
  for (uint32_t d = 0; d < num_shards_; ++d) {
    next_[d] = shards_[d]->PeekNextTime();
    global = std::min(global, next_[d]);
  }
  return global;
}

void ParallelEngine::ComputeHorizons() {
  const Duration l = lookahead();
  for (uint32_t d = 0; d < num_shards_; ++d) {
    // A lone shard has no other shard to hear from, or to echo its own
    // output back, so its horizon stays infinite.
    SimTime h = num_shards_ == 1 ? Engine::kNever : SatAdd(SatAdd(next_[d], l), l);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (s != d) {
        h = std::min(h, SatAdd(next_[s], l));
      }
    }
    horizon_[d] = h;
  }
}

void ParallelEngine::RunWindows() {
  for (uint32_t d = 0; d < num_shards_; ++d) {
    if (next_[d] >= horizon_[d]) {
      ++stats_.windows_skipped;
      continue;
    }
    ++stats_.windows_run;
    // Half-open window: events strictly below the horizon. The clock is not
    // advanced to the horizon — later epochs may deliver messages below it.
    stats_.events_run += shards_[d]->RunEvents(horizon_[d] - 1);
  }
}

uint64_t ParallelEngine::Run() {
  running_ = true;
  const uint64_t before = stats_.events_run;
  for (;;) {
    stats_.max_outbox = std::max(stats_.max_outbox, posted_since_barrier_);
    posted_since_barrier_ = 0;
    if (ComputeNextTimes() == Engine::kNever) {
      break;
    }
    ComputeHorizons();
    ++stats_.epochs;
    RunWindows();
  }
  return stats_.events_run - before;
}

}  // namespace hyperion::sim
