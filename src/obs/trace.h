// Sim-time distributed tracing (PR 4).
//
// The paper's central claim is that a CPU-free datapath is *inspectable and
// predictable*: hop counts, queueing, and reconfiguration latency are
// first-class quantities (§1, Fig. 2). This module makes them observable as
// spans — named intervals of virtual time with parent links and subsystem
// tags — without perturbing the simulation at all: tracing never advances
// the clock, never draws from a workload RNG, and never changes a modelled
// byte count, so a run with tracing on is time-identical to a run with it
// off.
//
// Determinism contract (the property the golden-trace regression pins):
//
//   * Span and trace ids are derived from (origin, seq): `origin` is a
//     logical id the creator assigns (a cluster node id, a ParallelEngine
//     source id — never a shard index, which changes with the
//     layout), and `seq` is the tracer's own call counter, which advances
//     in the origin's deterministic execution order. No wall clock, no
//     addresses, no randomness.
//   * Timestamps are virtual (sim::SimTime), so begin/end are bit-stable.
//   * Merged(...) orders spans across tracers by (begin, origin, id) — the
//     same merge discipline sim::ParallelEngine uses for messages — so the
//     merged trace of a sharded run is bit-identical for any shard layout.
//
// Cross-shard stitching: a caller opens a span, packs {trace_id, span_id}
// into a TraceContext, and the RPC layer carries it inside the request
// frame (as wire metadata that is excluded from the modelled latency — see
// dpu/rpc.cc). The callee's tracer opens its serve span with that context
// as the explicit parent, so one request's spans form a single tree even
// when its hops execute on different ParallelEngine shards.
//
// Cost model: every instrumentation site is guarded by a null/enabled
// check, so an untraced run pays one predictable branch per site (none of
// which sit in the engine's per-event hot path — bench_engine is the
// regression gate). Building with -DHYPERION_OBS_DISABLED turns kCompiledIn
// into a constant false and the optimizer deletes the sites entirely.

#ifndef HYPERION_SRC_OBS_TRACE_H_
#define HYPERION_SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/time.h"

namespace hyperion::sim {
class Engine;
}  // namespace hyperion::sim

namespace hyperion::obs {

#ifdef HYPERION_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

// Layer tags for spans and the per-request critical-path report. One value
// per instrumented substrate of the Fig. 2 datapath.
enum class Subsystem : uint8_t {
  kEngine = 0,  // simulation engine / harness-level run windows
  kNet,         // transports + cross-shard wire hops
  kRpc,         // RPC client/server/sharded-node layer
  kNvme,        // NVMe controller + media
  kPcie,        // PCIe DMA + link recovery
  kFpga,        // fabric reconfiguration + slot scheduling
  kStore,       // single-level store / KV backends
  kApp,         // everything workload-level
};
inline constexpr size_t kSubsystemCount = 8;

// Stable lower_snake name ("engine", "net", ...), used as the Chrome trace
// category and in report rows.
std::string_view SubsystemName(Subsystem subsystem);

// 0 is "invalid"/"untraced" for both.
using SpanId = uint64_t;
using TraceId = uint64_t;

// What crosses an RPC boundary: enough to attach a remote child span to
// its parent. 16 bytes on the wire (see dpu/rpc.cc trailer codec).
struct TraceContext {
  TraceId trace_id = 0;
  SpanId parent_span = 0;

  explicit operator bool() const { return trace_id != 0; }
  bool operator==(const TraceContext&) const = default;
};

// One closed (or still-open, end == kOpen) span. Plain value: the golden
// trace regression compares vectors of these for bit-identity.
struct SpanRecord {
  static constexpr sim::SimTime kOpen = ~0ull;

  SpanId id = 0;
  TraceId trace_id = 0;
  SpanId parent = 0;  // 0 = root
  uint32_t origin = 0;
  Subsystem subsystem = Subsystem::kApp;
  sim::SimTime begin = 0;
  sim::SimTime end = kOpen;
  std::string name;

  sim::Duration duration() const { return end == kOpen ? 0 : end - begin; }
  bool operator==(const SpanRecord&) const = default;
};

// Per-origin span recorder. Not thread-safe by design: under the parallel
// engine each tracer is owned by one logical node and therefore touched
// only by that node's shard (the same contract as the node's private
// engine); merge across tracers only at quiescence.
class Tracer {
 public:
  explicit Tracer(uint32_t origin = 0) : origin_(origin) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint32_t origin() const { return origin_; }

  // Runtime kill switch: a disabled tracer records nothing and hands out
  // id 0 (which every End/annotation site treats as a no-op).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Fresh trace id, derived from (origin, seq).
  TraceId NewTraceId() {
    if (!enabled_) {
      return 0;
    }
    return Compose(origin_, ++next_trace_);
  }

  // Opens a synchronous (stack-scoped) span at virtual time `now`. With an
  // explicit `parent` context the span attaches there (cross-boundary
  // stitch); otherwise it nests under the tracer's innermost open
  // synchronous span, or roots a fresh trace if none is open. The span
  // joins the nesting stack: spans opened before its End() become its
  // children. Returns 0 when disabled.
  SpanId Begin(Subsystem subsystem, std::string_view name, sim::SimTime now,
               TraceContext parent = {});

  // Opens a detached span: same parent resolution, but the span never
  // joins the nesting stack — use for intervals that outlive the current
  // call frame (an async RPC in flight). Returns 0 when disabled.
  SpanId BeginAsync(Subsystem subsystem, std::string_view name, sim::SimTime now,
                    TraceContext parent = {});

  // Closes `id` at `now`. id 0 is a no-op, so call sites need no guards.
  void End(SpanId id, sim::SimTime now);

  // Zero-duration marker span (begin == end): fault injections, migrations.
  void Instant(Subsystem subsystem, std::string_view name, sim::SimTime now,
               TraceContext parent = {}) {
    End(BeginAsync(subsystem, name, now, parent), now);
  }

  // Context that makes `span` the parent of remote children.
  TraceContext ContextOf(SpanId span) const;

  const std::vector<SpanRecord>& spans() const { return spans_; }
  size_t open_depth() const { return stack_.size(); }

  // Deterministic cross-tracer merge: (begin, origin, id) order. Origins
  // must be unique across the merged tracers for the order to be total.
  static std::vector<SpanRecord> Merged(const std::vector<const Tracer*>& tracers);

 private:
  static SpanId Compose(uint32_t origin, uint64_t seq) {
    // (origin, seq) packed so ids are unique across tracers with distinct
    // origins and increase in creation order within one tracer.
    return (static_cast<uint64_t>(origin) + 1) << 40 | seq;
  }

  SpanId Open(Subsystem subsystem, std::string_view name, sim::SimTime now,
              TraceContext parent);
  SpanRecord* Find(SpanId id);

  uint32_t origin_;
  bool enabled_ = true;
  uint64_t next_span_ = 0;
  uint64_t next_trace_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<SpanId> stack_;  // open synchronous spans, innermost last
};

// RAII span over a scope whose virtual duration is whatever the given
// engine's clock advanced by. The destructor closes the span at
// clock->Now(), so early returns (error paths, RETURN_IF_ERROR) still end
// their spans and never wedge the tracer's nesting stack. A null tracer
// (or HYPERION_OBS_DISABLED) makes construction and destruction free.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, sim::Engine* clock, Subsystem subsystem, std::string_view name,
             TraceContext parent = {});
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  // Closes the span at the clock's current time; later End calls are no-ops.
  void End();

  SpanId id() const { return id_; }
  // Context parenting remote/child work under this span.
  TraceContext context() const {
    return tracer_ != nullptr ? tracer_->ContextOf(id_) : TraceContext{};
  }

 private:
  Tracer* tracer_ = nullptr;
  sim::Engine* clock_ = nullptr;
  SpanId id_ = 0;
};

}  // namespace hyperion::obs

#endif  // HYPERION_SRC_OBS_TRACE_H_
