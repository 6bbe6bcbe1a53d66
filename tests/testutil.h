// Shared test harnesses (PR 4).
//
// Three fixtures and a handful of payload builders that previously lived as
// near-identical copies in dpu_test.cc, fault_test.cc, and cluster_test.cc:
//
//   * DpuFixture     — one booted Hyperion DPU plus a client host on the
//                      same fabric, with granular Boot / InstallServices /
//                      ConnectClient steps so tests that exercise the
//                      pre-boot control path can skip the later stages.
//   * NvmeFixture    — a bare NVMe controller with one namespace and a
//                      preloaded sentinel block (the fault-injection rig).
//   * SmallClusterOptions / SmallRepOptions — the seeded 4-node KvCluster
//                      and ReplicatedKvCluster layouts the determinism
//                      regressions share as their oracle workloads.
//   * ExpectLayoutInvariant — the shard-layout determinism oracle, for any
//                      cluster harness.
//
// Everything is header-only (inline) because each test binary is its own
// translation unit; the fixtures use CHECK for setup steps that run in
// constructors (gtest ASSERTs cannot) and leave per-test assertions to the
// test bodies.

#ifndef HYPERION_TESTS_TESTUTIL_H_
#define HYPERION_TESTS_TESTUTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/dpu/cluster.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/replication.h"
#include "src/dpu/rpc.h"
#include "src/dpu/services.h"
#include "src/net/transport.h"
#include "src/nvme/controller.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"

namespace hyperion::testutil {

// -- Trace helpers ---------------------------------------------------------

// How many spans in `spans` carry exactly this name ("nvme.retry", ...).
inline size_t CountSpans(const std::vector<obs::SpanRecord>& spans, std::string_view name) {
  size_t count = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) {
      ++count;
    }
  }
  return count;
}

inline size_t CountSpans(const obs::Tracer& tracer, std::string_view name) {
  return CountSpans(tracer.spans(), name);
}

// -- KV payload builders ---------------------------------------------------

// Put payload: key, value length, value bytes (the KvOp::kPut wire shape).
inline Bytes KvPutPayload(uint64_t key, ByteSpan value) {
  Bytes payload;
  PutU64(payload, key);
  PutU32(payload, static_cast<uint32_t>(value.size()));
  PutBytes(payload, value);
  return payload;
}

// Put payload with a constant-fill value of `value_bytes` bytes.
inline Bytes KvPutPayload(uint64_t key, uint32_t value_bytes, uint8_t fill = 0x5a) {
  Bytes value(value_bytes, fill);
  return KvPutPayload(key, ByteSpan(value.data(), value.size()));
}

// Get/Delete payload: just the key.
inline Bytes KvKeyPayload(uint64_t key) {
  Bytes payload;
  PutU64(payload, key);
  return payload;
}

inline dpu::RpcRequest KvPutRequest(uint64_t key, uint32_t value_bytes, uint8_t fill = 0x5a) {
  return {dpu::ServiceId::kKv, dpu::KvOp::kPut, KvPutPayload(key, value_bytes, fill)};
}

inline dpu::RpcRequest KvGetRequest(uint64_t key) {
  return {dpu::ServiceId::kKv, dpu::KvOp::kGet, KvKeyPayload(key)};
}

// -- DPU fixture -----------------------------------------------------------

// One simulated Hyperion DPU and a client host sharing a fabric. The setup
// steps are granular because the tests disagree on how much world they
// want: control-path tests boot but never install services, fault tests
// boot + install but build their own (injected) transports, datapath tests
// want the whole stack.
class DpuFixture : public ::testing::Test {
 protected:
  explicit DpuFixture(uint64_t seed = 7)
      : fabric_(&engine_), dpu_(&engine_, &fabric_), rng_(seed) {
    client_host_ = fabric_.AddHost("client");
  }

  // Power-on boot. CHECK-based so subclasses may call it from constructors.
  void Boot() { CHECK_OK(dpu_.Boot().status()); }

  // Registers the KV/log/block/control services on the DPU's RPC server.
  void InstallServices() {
    auto services = dpu::HyperionServices::Install(&dpu_);
    CHECK_OK(services.status());
    services_ = std::move(*services);
  }

  // Client-side RPC stack over `kind` (loss/overhead knobs via `params`).
  void ConnectClient(net::TransportKind kind = net::TransportKind::kRdma,
                     net::TransportParams params = {}) {
    transport_ = net::MakeTransport(kind, &fabric_, &rng_, params);
    rpc_client_ = std::make_unique<dpu::RpcClient>(transport_.get(), client_host_,
                                                   dpu_.host_id(), &dpu_.rpc());
  }

  void BootAndInstall() {
    Boot();
    InstallServices();
  }

  // The full stack: boot, services, and an RDMA client.
  void BootAndConnect() {
    BootAndInstall();
    ConnectClient();
  }

  dpu::RpcResponse Call(dpu::ServiceId service, uint16_t opcode, Bytes payload) {
    dpu::RpcRequest request{service, opcode, std::move(payload)};
    auto response = rpc_client_->Call(request);
    EXPECT_TRUE(response.ok());
    return response.ok() ? *response : dpu::RpcResponse::Fail(response.status());
  }

  sim::Engine engine_;
  net::Fabric fabric_;
  dpu::Hyperion dpu_;
  net::HostId client_host_ = 0;
  Rng rng_;
  std::unique_ptr<dpu::HyperionServices> services_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<dpu::RpcClient> rpc_client_;
};

// -- NVMe fixture ----------------------------------------------------------

// A bare controller with one namespace; LBA kPreloadLba holds a block of
// kPreloadFill so read-after-fault tests can verify recovered data.
class NvmeFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kPreloadLba = 7;
  static constexpr uint8_t kPreloadFill = 0xab;

  NvmeFixture() : controller_(&engine_) {
    nsid_ = controller_.AddNamespace(1024);
    Bytes block(nvme::kLbaSize, kPreloadFill);
    CHECK_OK(controller_.Write(nsid_, kPreloadLba, ByteSpan(block.data(), block.size())));
  }

  sim::Engine engine_;
  nvme::Controller controller_;
  uint32_t nsid_ = 0;
};

// -- Cluster workload ------------------------------------------------------

// The seeded 4-node layout both determinism regressions run: small enough
// to finish in milliseconds, busy enough that every node serves remote ops.
inline dpu::ClusterOptions SmallClusterOptions() {
  dpu::ClusterOptions options;
  options.num_nodes = 4;
  options.workload.clients_per_node = 2;
  options.workload.ops_per_client = 8;
  options.workload.value_bytes = 64;
  options.workload.key_space = 128;
  options.workload.write_pct = 50;
  options.workload.seed = 21;
  return options;
}

// The replicated counterpart: 2 groups x 2 replicas (4 nodes), each node's
// clients issuing a seeded 50/50 put/get mix.
inline dpu::RepClusterOptions SmallRepOptions() {
  dpu::RepClusterOptions options;
  options.groups = 2;
  options.replicas_per_group = 2;
  options.workload.clients_per_node = 2;
  options.workload.ops_per_client = 6;
  options.workload.value_bytes = 32;
  options.workload.key_space = 64;
  options.workload.write_pct = 50;
  options.workload.seed = 21;
  return options;
}

// -- Layout oracle ---------------------------------------------------------

// The determinism oracle every cluster harness shares: runs `options` as a
// 1-shard inline golden, then on shards {1, 2, 4} x threads {off, on}, and
// expects each Run() result to equal the golden's (operator==). `check`, if
// given, runs after every Run() — the golden's first — for oracles beyond
// the result snapshot (merged trace, audit, history). Returns the golden.
template <typename Harness, typename Options>
auto ExpectLayoutInvariant(Options options,
                           const std::function<void(Harness&)>& check = nullptr) {
  const auto run = [&](uint32_t shards, bool threads) {
    options.num_shards = shards;
    options.use_threads = threads;
    Harness harness(options);
    auto result = harness.Run();
    if (check) {
      check(harness);
    }
    return result;
  };
  const auto golden = run(1, false);
  for (const uint32_t shards : {1u, 2u, 4u}) {
    for (const bool threads : {false, true}) {
      EXPECT_EQ(run(shards, threads), golden) << "num_shards=" << shards << " threads=" << threads;
    }
  }
  return golden;
}

// -- Linearizability checker -----------------------------------------------
//
// Wing & Gong-style membership check over a RepHistOp history: per key
// (keys are independent registers), search for a total order of the
// operations that (a) respects real time — an op that returned before
// another was invoked linearizes first — and (b) is a legal register
// run — every successful get observes the tag of the latest linearized
// put (or the initial tag). Failed puts are ambiguous: they may take
// effect at any point after their invocation, or never; failed gets
// observed nothing and are dropped.
//
// The search is a DFS over (set of linearized ops, current register
// value), memoized, so the per-key cost is bounded by distinct
// (mask, value) states rather than orderings. Keys are capped at 64 ops
// (the mask is a u64); keep test workloads under that per-key.

namespace internal {

struct LinOp {
  bool is_put = false;
  bool ok = false;  // failed put = ambiguous; failed gets never reach here
  uint64_t tag = 0;
  sim::SimTime invoke_ns = 0;
  sim::SimTime return_ns = 0;
};

inline bool KeyLinearizable(const std::vector<LinOp>& ops, uint64_t initial_tag) {
  const size_t n = ops.size();
  CHECK_LE(n, 64u) << "linearizability checker caps at 64 ops per key";
  if (n == 0) {
    return true;
  }
  const uint64_t full = n == 64 ? ~0ull : (1ull << n) - 1;
  struct State {
    uint64_t mask;
    uint64_t value;
    bool operator==(const State&) const = default;
  };
  struct StateHash {
    size_t operator()(const State& s) const {
      return std::hash<uint64_t>()(s.mask * 0x9e3779b97f4a7c15ull ^ s.value);
    }
  };
  std::unordered_set<State, StateHash> visited;
  std::vector<State> stack{{0, initial_tag}};
  while (!stack.empty()) {
    const State state = stack.back();
    stack.pop_back();
    if (state.mask == full) {
      return true;
    }
    if (!visited.insert(state).second) {
      continue;
    }
    // An unlinearized op is minimal (eligible to go next) iff no other
    // unlinearized op returned before it was invoked.
    sim::SimTime min_return = ~sim::SimTime{0};
    for (size_t i = 0; i < n; ++i) {
      if ((state.mask & (1ull << i)) != 0) {
        continue;
      }
      if (ops[i].ok) {  // a failed put never returned: no constraint
        min_return = std::min(min_return, ops[i].return_ns);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if ((state.mask & (1ull << i)) != 0 || ops[i].invoke_ns > min_return) {
        continue;
      }
      const uint64_t next_mask = state.mask | (1ull << i);
      if (ops[i].is_put) {
        stack.push_back({next_mask, ops[i].tag});
        if (!ops[i].ok) {
          // The ambiguous branch: the failed put never takes effect.
          stack.push_back({next_mask, state.value});
        }
      } else if (ops[i].tag == state.value) {
        stack.push_back({next_mask, state.value});
      }
    }
  }
  return false;
}

}  // namespace internal

// True iff `history` is linearizable per key. `initial_tag(key)` gives the
// register's value before the history starts (the harness preload tag).
// On failure, `bad_key` (if given) receives the first unlinearizable key.
inline bool IsLinearizable(const std::vector<dpu::RepHistOp>& history,
                           const std::function<uint64_t(uint64_t)>& initial_tag,
                           uint64_t* bad_key = nullptr) {
  std::map<uint64_t, std::vector<internal::LinOp>> by_key;
  for (const dpu::RepHistOp& op : history) {
    if (op.kind == dpu::RepHistOp::kGet && !op.ok) {
      continue;
    }
    by_key[op.key].push_back(internal::LinOp{op.kind == dpu::RepHistOp::kPut, op.ok,
                                             op.tag, op.invoke_ns, op.return_ns});
  }
  for (auto& [key, ops] : by_key) {
    std::stable_sort(ops.begin(), ops.end(),
                     [](const internal::LinOp& a, const internal::LinOp& b) {
                       return a.invoke_ns < b.invoke_ns;
                     });
    if (!internal::KeyLinearizable(ops, initial_tag(key))) {
      if (bad_key != nullptr) {
        *bad_key = key;
      }
      return false;
    }
  }
  return true;
}

}  // namespace hyperion::testutil

#endif  // HYPERION_TESTS_TESTUTIL_H_
