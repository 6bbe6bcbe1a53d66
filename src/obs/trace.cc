#include "src/obs/trace.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sim/engine.h"

namespace hyperion::obs {

std::string_view SubsystemName(Subsystem subsystem) {
  switch (subsystem) {
    case Subsystem::kEngine:
      return "engine";
    case Subsystem::kNet:
      return "net";
    case Subsystem::kRpc:
      return "rpc";
    case Subsystem::kNvme:
      return "nvme";
    case Subsystem::kPcie:
      return "pcie";
    case Subsystem::kFpga:
      return "fpga";
    case Subsystem::kStore:
      return "store";
    case Subsystem::kApp:
      return "app";
  }
  return "unknown";
}

SpanId Tracer::Open(Subsystem subsystem, std::string_view name, sim::SimTime now,
                    TraceContext parent) {
  SpanRecord span;
  span.id = Compose(origin_, ++next_span_);
  span.subsystem = subsystem;
  span.origin = origin_;
  span.begin = now;
  span.name = std::string(name);
  if (parent) {
    span.trace_id = parent.trace_id;
    span.parent = parent.parent_span;
  } else if (!stack_.empty()) {
    const SpanRecord* top = Find(stack_.back());
    span.trace_id = top->trace_id;
    span.parent = top->id;
  } else {
    span.trace_id = Compose(origin_, ++next_trace_);
    span.parent = 0;
  }
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

SpanId Tracer::Begin(Subsystem subsystem, std::string_view name, sim::SimTime now,
                     TraceContext parent) {
  if (!enabled_) {
    return 0;
  }
  const SpanId id = Open(subsystem, name, now, parent);
  stack_.push_back(id);
  return id;
}

SpanId Tracer::BeginAsync(Subsystem subsystem, std::string_view name, sim::SimTime now,
                          TraceContext parent) {
  if (!enabled_) {
    return 0;
  }
  return Open(subsystem, name, now, parent);
}

void Tracer::End(SpanId id, sim::SimTime now) {
  if (id == 0) {
    return;
  }
  SpanRecord* span = Find(id);
  CHECK(span != nullptr);
  CHECK(span->end == SpanRecord::kOpen);
  CHECK_GE(now, span->begin);
  span->end = now;
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

TraceContext Tracer::ContextOf(SpanId span) const {
  if (span == 0) {
    return {};
  }
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == span) {
      return TraceContext{it->trace_id, it->id};
    }
  }
  return {};
}

SpanRecord* Tracer::Find(SpanId id) {
  // Recent spans end first in every workload we trace; scan from the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      return &*it;
    }
  }
  return nullptr;
}

std::vector<SpanRecord> Tracer::Merged(const std::vector<const Tracer*>& tracers) {
  std::vector<SpanRecord> merged;
  size_t total = 0;
  for (const Tracer* tracer : tracers) {
    total += tracer->spans().size();
  }
  merged.reserve(total);
  for (const Tracer* tracer : tracers) {
    merged.insert(merged.end(), tracer->spans().begin(), tracer->spans().end());
  }
  std::sort(merged.begin(), merged.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.begin != b.begin) {
      return a.begin < b.begin;
    }
    if (a.origin != b.origin) {
      return a.origin < b.origin;
    }
    return a.id < b.id;
  });
  return merged;
}

ScopedSpan::ScopedSpan(Tracer* tracer, sim::Engine* clock, Subsystem subsystem,
                       std::string_view name, TraceContext parent) {
  if (kCompiledIn && tracer != nullptr && clock != nullptr) {
    tracer_ = tracer;
    clock_ = clock;
    id_ = tracer_->Begin(subsystem, name, clock_->Now(), parent);
  }
}

void ScopedSpan::End() {
  if (id_ != 0) {
    tracer_->End(id_, clock_->Now());
    id_ = 0;
  }
}

}  // namespace hyperion::obs
