// Experiment E2 — Figure 2 datapath.
//
// Drives the end-to-end hardware path of the blueprint: a client sends a
// KV request over an application-chosen transport (TCP/UDP/RDMA/Homa), the
// DPU shell dispatches it, the single-level store routes it to DRAM or
// flash, and the response returns. Reported per (transport, value size):
//   sim_put_us / sim_get_us  modelled end-to-end request latency
//
// Expected shape: RDMA < Homa < UDP < TCP for small requests (software and
// protocol overhead ordering); serialization dominates and the transports
// converge as values grow.
//
// E12 (PR 4) rides on the same datapath with tracing enabled: the traced
// variant attributes each request's latency to net / rpc / nvme / pcie via
// the critical-path report and dumps a Chrome trace_event JSON
// (fig2_trace.json, loadable in chrome://tracing or Perfetto) plus the
// layer-breakdown table (fig2_critical_path.txt).

#include <benchmark/benchmark.h>

#include <fstream>

#include "src/dpu/hyperion.h"
#include "src/dpu/services.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace {

using namespace hyperion;  // NOLINT

constexpr net::TransportKind kKinds[] = {
    net::TransportKind::kUdp, net::TransportKind::kTcp, net::TransportKind::kRdma,
    net::TransportKind::kHoma};

struct Setup {
  sim::Engine engine;
  net::Fabric fabric{&engine};
  dpu::Hyperion dpu{&engine, &fabric};
  net::HostId client;
  Rng rng{11};
  std::unique_ptr<dpu::HyperionServices> services;

  explicit Setup(net::TransportKind kind) {
    client = fabric.AddHost("client");
    CHECK_OK(dpu.Boot());
    auto installed = dpu::HyperionServices::Install(&dpu);
    CHECK_OK(installed.status());
    services = std::move(*installed);
    // The DPU terminates its transport in fabric (zero software cost); the
    // *client* is an ordinary host: kernel stack for TCP/UDP, kernel-bypass
    // verbs for RDMA, a user-level runtime for Homa.
    net::TransportParams params;
    switch (kind) {
      case net::TransportKind::kTcp:
        params.sender_sw_overhead = 2500;
        params.receiver_sw_overhead = 2500;
        break;
      case net::TransportKind::kUdp:
        params.sender_sw_overhead = 1500;
        params.receiver_sw_overhead = 1500;
        break;
      case net::TransportKind::kHoma:
        params.sender_sw_overhead = 600;
        params.receiver_sw_overhead = 600;
        break;
      case net::TransportKind::kRdma:
        break;  // hardware verbs
    }
    transport = net::MakeTransport(kind, &fabric, &rng, params);
    rpc = std::make_unique<dpu::RpcClient>(transport.get(), client, dpu.host_id(), &dpu.rpc());
  }

  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<dpu::RpcClient> rpc;
};

void BM_Fig2Datapath(benchmark::State& state) {
  const net::TransportKind kind = kKinds[state.range(0)];
  const uint64_t value_bytes = static_cast<uint64_t>(state.range(1));
  Setup setup(kind);

  Bytes value(value_bytes, 0x5a);
  uint64_t key = 0;
  sim::Duration put_total = 0;
  sim::Duration get_total = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    Bytes put = dpu::EncodeKvPut(key, ByteSpan(value.data(), value.size()));
    const sim::SimTime t0 = setup.engine.Now();
    auto put_resp = setup.rpc->Call({dpu::ServiceId::kKv, dpu::KvOp::kPut, std::move(put)});
    const sim::SimTime t1 = setup.engine.Now();
    auto get_resp = setup.rpc->Call({dpu::ServiceId::kKv, dpu::KvOp::kGet, dpu::EncodeKvGet(key)});
    const sim::SimTime t2 = setup.engine.Now();
    if (!put_resp.ok() || !put_resp->status.ok() || !get_resp.ok() ||
        !get_resp->status.ok()) {
      state.SkipWithError("request failed");
      return;
    }
    put_total += t1 - t0;
    get_total += t2 - t1;
    ++ops;
    key = (key + 1) % 64;
  }
  state.counters["sim_put_us"] = sim::ToMicros(put_total) / static_cast<double>(ops);
  state.counters["sim_get_us"] = sim::ToMicros(get_total) / static_cast<double>(ops);
  // Bytes memcpy'd through the Buffer layer per request (serialize + store
  // + parse); the zero-copy datapath's figure of merit.
  state.counters["copy_bytes_per_req"] =
      static_cast<double>(setup.rpc->counters().Get("copy_bytes")) /
      static_cast<double>(2 * ops);
  state.SetLabel(std::string(net::TransportKindName(kind)));
}

// Same datapath, block-level (NVMe-oF) storage API instead of KV.
void BM_Fig2Block(benchmark::State& state) {
  const net::TransportKind kind = kKinds[state.range(0)];
  const uint64_t bytes = static_cast<uint64_t>(state.range(1));
  Setup setup(kind);

  Bytes data(bytes, 0x33);
  uint64_t lba = 0;
  sim::Duration write_total = 0;
  sim::Duration read_total = 0;
  uint64_t ops = 0;
  const uint32_t blocks = static_cast<uint32_t>(bytes / nvme::kLbaSize);
  for (auto _ : state) {
    Bytes write;
    PutU32(write, 2);  // namespace 2: raw block space
    PutU64(write, lba);
    PutBytes(write, ByteSpan(data.data(), data.size()));
    const sim::SimTime t0 = setup.engine.Now();
    auto wrote = setup.rpc->Call({dpu::ServiceId::kBlock, dpu::BlockOp::kWrite,
                                  std::move(write)});
    const sim::SimTime t1 = setup.engine.Now();
    Bytes read;
    PutU32(read, 2);
    PutU64(read, lba);
    PutU32(read, blocks);
    auto got = setup.rpc->Call({dpu::ServiceId::kBlock, dpu::BlockOp::kRead, std::move(read)});
    const sim::SimTime t2 = setup.engine.Now();
    if (!wrote.ok() || !wrote->status.ok() || !got.ok() || !got->status.ok()) {
      state.SkipWithError("block op failed");
      return;
    }
    write_total += t1 - t0;
    read_total += t2 - t1;
    ++ops;
    lba = (lba + blocks) % 4096;
  }
  state.counters["sim_write_us"] = sim::ToMicros(write_total) / static_cast<double>(ops);
  state.counters["sim_read_us"] = sim::ToMicros(read_total) / static_cast<double>(ops);
  state.counters["copy_bytes_per_req"] =
      static_cast<double>(setup.rpc->counters().Get("copy_bytes")) /
      static_cast<double>(2 * ops);
  state.SetLabel(std::string(net::TransportKindName(kind)) + "/nvmeof_block");
}

// E12 — traced Fig. 2 datapath. Runs the KV put/get loop with the tracer
// wired through every layer, then answers "where did each request's
// nanoseconds go?" via the critical-path report and dumps the full span
// tree as Chrome trace_event JSON. Counters report per-layer self time
// averaged over requests; artifacts land in the working directory.
void BM_Fig2CriticalPath(benchmark::State& state) {
  const net::TransportKind kind = kKinds[state.range(0)];
  const uint64_t value_bytes = static_cast<uint64_t>(state.range(1));
  Setup setup(kind);

  obs::Tracer tracer(/*origin=*/0);
  setup.dpu.InstallTracer(&tracer);
  setup.transport->SetTracer(&tracer);
  setup.rpc->SetTracer(&tracer);

  Bytes value(value_bytes, 0x5a);
  uint64_t key = 0;
  sim::Duration total = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    Bytes put = dpu::EncodeKvPut(key, ByteSpan(value.data(), value.size()));
    const sim::SimTime t0 = setup.engine.Now();
    auto put_resp = setup.rpc->Call({dpu::ServiceId::kKv, dpu::KvOp::kPut, std::move(put)});
    auto get_resp = setup.rpc->Call({dpu::ServiceId::kKv, dpu::KvOp::kGet, dpu::EncodeKvGet(key)});
    const sim::SimTime t1 = setup.engine.Now();
    if (!put_resp.ok() || !put_resp->status.ok() || !get_resp.ok() ||
        !get_resp->status.ok()) {
      state.SkipWithError("request failed");
      return;
    }
    total += t1 - t0;
    ops += 2;
    key = (key + 1) % 64;
  }

  const std::vector<obs::SpanRecord> spans = obs::Tracer::Merged({&tracer});
  const obs::CriticalPathReport report = obs::BuildCriticalPathReport(spans);
  // Per-request layer breakdown: self time attributed to each subsystem on
  // the critical path, averaged over the requests the report covers.
  sim::Duration by_subsystem[obs::kSubsystemCount] = {};
  uint64_t requests = 0;
  for (const obs::CriticalPathRow& row : report.rows) {
    for (size_t s = 0; s < obs::kSubsystemCount; ++s) {
      by_subsystem[s] += row.by_subsystem[s];
    }
    ++requests;
  }
  if (requests > 0) {
    for (size_t s = 0; s < obs::kSubsystemCount; ++s) {
      if (by_subsystem[s] == 0) {
        continue;
      }
      state.counters[std::string("path_") +
                     std::string(obs::SubsystemName(static_cast<obs::Subsystem>(s))) +
                     "_us"] =
          sim::ToMicros(by_subsystem[s]) / static_cast<double>(requests);
    }
  }
  state.counters["sim_rt_us"] = sim::ToMicros(total) / static_cast<double>(ops / 2);
  state.counters["spans_per_req"] =
      static_cast<double>(spans.size()) / static_cast<double>(ops);

  // Artifacts: the Chrome trace (chrome://tracing, Perfetto) and the
  // human-readable breakdown. Written once, from the last run config.
  {
    std::ofstream trace_out("fig2_trace.json", std::ios::trunc);
    trace_out << obs::ToChromeTraceJson(spans);
  }
  {
    std::ofstream path_out("fig2_critical_path.txt", std::ios::trunc);
    path_out << report.Summary();
  }
  state.SetLabel(std::string(net::TransportKindName(kind)) + "/traced");
}

void RegisterAll() {
  for (int k = 0; k < 4; ++k) {
    for (int64_t bytes : {64, 4096, 65536}) {
      benchmark::RegisterBenchmark((std::string("E2/Fig2Datapath/kv/") +
                                       std::string(net::TransportKindName(kKinds[k])) +
                                       "/value:" + std::to_string(bytes)).c_str(),
                                   BM_Fig2Datapath)
          ->Args({k, bytes})
          ->Iterations(50);
    }
    for (int64_t bytes : {4096, 65536}) {
      benchmark::RegisterBenchmark((std::string("E2/Fig2Datapath/block/") +
                                       std::string(net::TransportKindName(kKinds[k])) +
                                       "/bytes:" + std::to_string(bytes)).c_str(),
                                   BM_Fig2Block)
          ->Args({k, bytes})
          ->Iterations(50);
    }
  }
  // E12: one traced config per transport, mid-size value. Tracing is on for
  // these only — E2 numbers above stay untraced.
  for (int k = 0; k < 4; ++k) {
    benchmark::RegisterBenchmark((std::string("E12/Fig2CriticalPath/kv/") +
                                     std::string(net::TransportKindName(kKinds[k])) +
                                     "/value:4096").c_str(),
                                 BM_Fig2CriticalPath)
        ->Args({k, 4096})
        ->Iterations(50);
  }
}

const int kRegistered = (RegisterAll(), 0);

}  // namespace
