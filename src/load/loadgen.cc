#include "src/load/loadgen.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace hyperion::load {

Outcome OutcomeOf(const Result<dpu::RpcResponse>& response) {
  if (!response.ok()) {
    return Outcome::kFailed;
  }
  if (response->status.ok()) {
    return Outcome::kOk;
  }
  return response->status.code() == StatusCode::kResourceExhausted ? Outcome::kRejected
                                                                     : Outcome::kFailed;
}

LoadGen::LoadGen(sim::Engine* engine, const LoadGenOptions& options, IssueFn issue)
    : engine_(engine), options_(options), issue_(std::move(issue)) {
  CHECK(engine_ != nullptr);
  CHECK(issue_ != nullptr);
  CHECK_GT(options_.total_requests, 0u);
  if (options_.open_loop) {
    CHECK_GT(options_.interarrival, 0u);
  } else {
    CHECK_GT(options_.clients, 0u);
  }
}

void LoadGen::Start() {
  if (options_.open_loop) {
    engine_->ScheduleAt(options_.start, [this] { IssueNext(); });
    return;
  }
  const uint32_t clients = std::min<uint32_t>(options_.clients, options_.total_requests);
  for (uint32_t c = 0; c < clients; ++c) {
    // Distinct start times need no tie-break, so the startup order is
    // trivially layout-invariant under the sharded engine.
    engine_->ScheduleAt(options_.start + uint64_t{c} * 7,
                        [this, c] { IssueClient(c); });
  }
}

void LoadGen::IssueNext() {
  if (next_seq_ >= options_.total_requests) {
    return;
  }
  const uint64_t seq = next_seq_++;
  // Chain the next arrival before issuing: an open loop waits for no one.
  if (next_seq_ < options_.total_requests) {
    engine_->ScheduleAfter(options_.interarrival, [this] { IssueNext(); });
  }
  Fire(seq, /*client=*/-1);
}

void LoadGen::IssueClient(uint32_t client) {
  if (next_seq_ >= options_.total_requests) {
    return;
  }
  Fire(next_seq_++, static_cast<int32_t>(client));
}

void LoadGen::Fire(uint64_t seq, int32_t client) {
  const sim::SimTime issued = engine_->Now();
  if (stats_.issued == 0) {
    stats_.first_issue = issued;
  }
  ++stats_.issued;
  const sim::SimTime deadline =
      options_.deadline == 0 ? sim::Engine::kNever : issued + options_.deadline;
  issue_(seq, deadline, [this, issued, deadline, client](Outcome outcome) {
    const sim::SimTime now = engine_->Now();
    stats_.last_completion = std::max(stats_.last_completion, now);
    switch (outcome) {
      case Outcome::kOk:
        if (deadline != sim::Engine::kNever && now > deadline) {
          // The server answered, but past the point the caller cared: for
          // goodput purposes this is wasted work, not a success.
          ++stats_.deadline_missed;
        } else {
          ++stats_.ok;
          latency_.Record(now - issued);
        }
        break;
      case Outcome::kRejected:
        ++stats_.rejected;
        break;
      case Outcome::kFailed:
        ++stats_.failed;
        break;
    }
    ++completed_;
    if (client >= 0 && next_seq_ < options_.total_requests) {
      // Always reissue via an event (even with zero think time): an inline
      // chain through a fast-rejecting sink would recurse once per request.
      engine_->ScheduleAfter(options_.think_time, [this, client] {
        IssueClient(static_cast<uint32_t>(client));
      });
    }
  });
}

}  // namespace hyperion::load
