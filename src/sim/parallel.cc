#include "src/sim/parallel.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::sim {

ParallelEngine::ParallelEngine(const ParallelEngineOptions& options)
    : options_(options), num_shards_(options.num_shards) {
  CHECK_GT(options_.num_shards, 0u);
  shards_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<Engine>();
    shard->outbox.resize(num_shards_);
    shard->outbox_min.assign(num_shards_, Engine::kNever);
    shard->inbox.resize(num_shards_);
    shards_.push_back(std::move(shard));
  }
  pair_declared_.assign(static_cast<size_t>(num_shards_) * num_shards_, Engine::kNever);
  next_.assign(num_shards_, Engine::kNever);
  horizon_.assign(num_shards_, Engine::kNever);
  active_.assign(num_shards_, 0);
  StartWorkers();
}

ParallelEngine::~ParallelEngine() {
  if (!workers_.empty()) {
    for (auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->shutdown = true;
      }
      shard->cv.notify_one();
    }
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
}

Engine& ParallelEngine::shard(uint32_t s) {
  CHECK_LT(s, shards_.size());
  return *shards_[s]->engine;
}

uint32_t ParallelEngine::AddSource(uint32_t shard) {
  CHECK_LT(shard, shards_.size());
  CHECK(!running_) << "register sources before Run()";
  sources_.push_back(Source{shard, 0});
  return static_cast<uint32_t>(sources_.size() - 1);
}

uint32_t ParallelEngine::source_shard(uint32_t source) const {
  CHECK_LT(source, sources_.size());
  return sources_[source].shard;
}

void ParallelEngine::DeclareLinkLatency(Duration min_latency) {
  CHECK_GE(min_latency, kLookaheadFloor) << "link latency below the lookahead floor";
  CHECK(!running_) << "declare link latencies before Run()";
  global_declared_ = std::min(global_declared_, min_latency);
  matrices_ready_ = false;
}

void ParallelEngine::DeclareLinkLatency(uint32_t src_shard, uint32_t dst_shard,
                                        Duration min_latency) {
  CHECK_LT(src_shard, shards_.size());
  CHECK_LT(dst_shard, shards_.size());
  CHECK_GE(min_latency, kLookaheadFloor) << "link latency below the lookahead floor";
  CHECK(!running_) << "declare link latencies before Run()";
  Duration& cell = pair_declared_[static_cast<size_t>(src_shard) * num_shards_ + dst_shard];
  cell = std::min(cell, min_latency);
  matrices_ready_ = false;
}

Duration ParallelEngine::lookahead() const {
  Duration l = global_declared_;
  for (Duration p : pair_declared_) {
    l = std::min(l, p);
  }
  return l == Engine::kNever ? kLookaheadFloor : l;
}

Duration ParallelEngine::lookahead(uint32_t src_shard, uint32_t dst_shard) const {
  CHECK_LT(src_shard, shards_.size());
  CHECK_LT(dst_shard, shards_.size());
  const Duration l = std::min(
      global_declared_, pair_declared_[static_cast<size_t>(src_shard) * num_shards_ + dst_shard]);
  return l == Engine::kNever ? kLookaheadFloor : l;
}

uint32_t ParallelEngine::RegisterChannel(uint32_t source, uint32_t dst_shard,
                                         Duration min_latency) {
  CHECK_LT(source, sources_.size());
  CHECK_LT(dst_shard, shards_.size());
  CHECK(!running_) << "register channels before Run()";
  if (min_latency > 0) {
    DeclareLinkLatency(sources_[source].shard, dst_shard, min_latency);
  }
  channels_.push_back(ChannelEdge{source, dst_shard});
  return static_cast<uint32_t>(channels_.size() - 1);
}

void ParallelEngine::EnsureMatrices() {
  if (matrices_ready_) {
    return;
  }
  const size_t n = num_shards_;
  l_eff_.assign(n * n, 0);
  for (size_t s = 0; s < n; ++s) {
    for (size_t d = 0; d < n; ++d) {
      Duration l = std::min(pair_declared_[s * n + d], global_declared_);
      l_eff_[s * n + d] = l == Engine::kNever ? kLookaheadFloor : l;
    }
  }
  // All-pairs minimum influence distance over the directed lookahead edges
  // (Floyd-Warshall over non-empty walks: the diagonal starts infinite, so
  // dist[d][d] becomes the cheapest cycle through other shards — the only
  // way shard d's own past output can come back to haunt it).
  dist_.assign(n * n, Engine::kNever);
  for (size_t s = 0; s < n; ++s) {
    for (size_t d = 0; d < n; ++d) {
      if (s != d) {
        dist_[s * n + d] = l_eff_[s * n + d];
      }
    }
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      const SimTime ik = dist_[i * n + k];
      if (ik == Engine::kNever) {
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        const SimTime kj = dist_[k * n + j];
        if (kj == Engine::kNever) {
          continue;
        }
        dist_[i * n + j] = std::min(dist_[i * n + j], SatAdd(ik, kj));
      }
    }
  }
  matrices_ready_ = true;
}

void ParallelEngine::Post(uint32_t source, uint32_t dst_shard, SimTime when, EventFn fn) {
  CHECK_LT(source, sources_.size());
  CHECK_LT(dst_shard, shards_.size());
  EnsureMatrices();
  Source& src = sources_[source];
  const uint32_t s = src.shard;
  Shard& home = *shards_[s];
  // Conservative-safety invariant: nothing posted during the current window
  // may take effect before this edge's lookahead.
  CHECK_GE(when, home.engine->Now() + l_eff_[static_cast<size_t>(s) * num_shards_ + dst_shard])
      << "cross-shard message inside the lookahead window";
  const uint64_t seq = src.next_seq++;
  if (dst_shard == s) {
    // Same-shard messages skip the exchange: the explicit (when, source,
    // seq) key puts them in exactly the position a barrier delivery would.
    home.engine->ScheduleMessage(when, source, seq, std::move(fn));
    ++home.self_delivered;
    return;
  }
  home.outbox_min[dst_shard] = std::min(home.outbox_min[dst_shard], when);
  home.outbox[dst_shard].push_back(Message{when, seq, source, std::move(fn)});
}

void ParallelEngine::StartWorkers() {
  if (!options_.use_threads || shards_.size() < 2) {
    return;
  }
  workers_.reserve(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

void ParallelEngine::DeliverInbox(Shard& sh) {
  if (sh.inbox_min == Engine::kNever) {
    return;
  }
  for (auto& in : sh.inbox) {
    for (Message& m : in) {
      sh.engine->ScheduleMessage(m.when, m.source, m.seq, std::move(m.fn));
    }
    in.clear();  // keeps capacity for the next swap
  }
  sh.inbox_min = Engine::kNever;
}

void ParallelEngine::WorkerLoop(uint32_t shard_index) {
  Shard& sh = *shards_[shard_index];
  uint64_t seen_gen = 0;
  for (;;) {
    SimTime horizon;
    {
      std::unique_lock<std::mutex> lock(sh.mu);
      sh.cv.wait(lock, [&] { return sh.shutdown || sh.gen != seen_gen; });
      if (sh.shutdown) {
        return;
      }
      seen_gen = sh.gen;
      horizon = sh.horizon;
    }
    DeliverInbox(sh);
    // Half-open window: events strictly below the horizon. The clock is not
    // advanced to the horizon — later epochs may deliver messages below it.
    sh.executed += sh.engine->RunEvents(horizon - 1);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_cv_.notify_one();
    }
  }
}

void ParallelEngine::ExchangeOutboxes() {
  uint64_t moved = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Shard& src = *shards_[s];
    for (uint32_t d = 0; d < num_shards_; ++d) {
      if (src.outbox_min[d] == Engine::kNever) {
        continue;
      }
      Shard& dst = *shards_[d];
      auto& box = src.outbox[d];
      auto& in = dst.inbox[s];
      moved += box.size();
      dst.inbox_min = std::min(dst.inbox_min, src.outbox_min[d]);
      if (in.empty()) {
        std::swap(in, box);  // capacities ping-pong: no steady-state alloc
      } else {
        for (Message& m : box) {
          in.push_back(std::move(m));
        }
        box.clear();
      }
      src.outbox_min[d] = Engine::kNever;
    }
  }
  if (moved > 0) {
    stats_.cross_shard_messages += moved;
    stats_.max_outbox = std::max(stats_.max_outbox, moved);
  }
}

SimTime ParallelEngine::ComputeNextTimes() {
  SimTime global = Engine::kNever;
  for (uint32_t d = 0; d < num_shards_; ++d) {
    const Shard& sh = *shards_[d];
    next_[d] = std::min(sh.engine->PeekNextTime(), sh.inbox_min);
    global = std::min(global, next_[d]);
  }
  return global;
}

void ParallelEngine::ComputeHorizons() {
  for (uint32_t d = 0; d < num_shards_; ++d) {
    SimTime h = Engine::kNever;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      const SimTime dsd = dist_[static_cast<size_t>(s) * num_shards_ + d];
      if (dsd == Engine::kNever || next_[s] == Engine::kNever) {
        continue;
      }
      h = std::min(h, SatAdd(next_[s], dsd));
    }
    horizon_[d] = h;
  }
}

void ParallelEngine::RunWindows() {
  uint32_t num_active = 0;
  for (uint32_t d = 0; d < num_shards_; ++d) {
    active_[d] = next_[d] < horizon_[d] ? 1 : 0;
    num_active += active_[d];
  }
  stats_.windows_run += num_active;
  stats_.windows_skipped += num_shards_ - num_active;
  if (workers_.empty()) {
    for (uint32_t d = 0; d < num_shards_; ++d) {
      if (!active_[d]) {
        continue;
      }
      Shard& sh = *shards_[d];
      DeliverInbox(sh);
      sh.executed += sh.engine->RunEvents(horizon_[d] - 1);
    }
    return;
  }
  if (num_active == 0) {
    return;
  }
  pending_.store(num_active, std::memory_order_relaxed);
  for (uint32_t d = 0; d < num_shards_; ++d) {
    if (!active_[d]) {
      continue;
    }
    Shard& sh = *shards_[d];
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.horizon = horizon_[d];
      ++sh.gen;
    }
    sh.cv.notify_one();
  }
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&] { return pending_.load(std::memory_order_acquire) == 0; });
}

uint64_t ParallelEngine::TotalExecuted() const {
  uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->executed;
  }
  return total;
}

uint64_t ParallelEngine::Run() {
  EnsureMatrices();
  running_ = true;
  const uint64_t before = TotalExecuted();
  for (;;) {
    ExchangeOutboxes();
    if (ComputeNextTimes() == Engine::kNever) {
      break;
    }
    ComputeHorizons();
    ++stats_.epochs;
    RunWindows();
  }
  const uint64_t after = TotalExecuted();
  stats_.events_run = after;
  uint64_t self = 0;
  for (const auto& sh : shards_) {
    self += sh->self_delivered;
  }
  stats_.self_delivered = self;
  stats_.messages = stats_.cross_shard_messages + self;
  return after - before;
}

}  // namespace hyperion::sim
