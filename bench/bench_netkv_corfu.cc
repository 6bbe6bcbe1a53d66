// Experiment E9 — network-attached data structures (§2.4): KV-SSD under
// YCSB-style mixes on the B+ tree and hash index backends, and Corfu-style
// shared-log appends with a growing client population. The write-optimized
// LSM on ZNS is measured served over RPC in E13 (kLsmKv) and on its own in
// E14 (bench_lsm).
//
// Reported: sim_kops (modelled throughput), and for the log sim_kappends_per_s
// and the log tail.
//
// Expected shape: the hash index beats the uncached, flash-resident B+ tree
// on every mix (one bucket read against height x read latency per get); log
// append throughput scales with clients until the flash tier's channel
// parallelism saturates.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "src/dpu/hyperion.h"
#include "src/nvme/flash.h"
#include "src/dpu/services.h"

namespace {

using namespace hyperion;  // NOLINT

struct Setup {
  sim::Engine engine;
  net::Fabric fabric{&engine};
  dpu::Hyperion dpu{&engine, &fabric};
  Rng rng{21};
  std::unique_ptr<dpu::HyperionServices> services;
  std::vector<std::unique_ptr<dpu::RpcClient>> clients;
  std::unique_ptr<net::Transport> transport;

  Setup(storage::KvBackend backend, int client_count) {
    CHECK_OK(dpu.Boot());
    auto installed = dpu::HyperionServices::Install(&dpu, backend);
    CHECK_OK(installed.status());
    services = std::move(*installed);
    transport = net::MakeTransport(net::TransportKind::kRdma, &fabric, &rng);
    for (int c = 0; c < client_count; ++c) {
      const net::HostId host = fabric.AddHost("client" + std::to_string(c));
      clients.push_back(std::make_unique<dpu::RpcClient>(transport.get(), host, dpu.host_id(),
                                                         &dpu.rpc()));
    }
  }
};

constexpr uint64_t kKeySpace = 2000;
constexpr uint64_t kValueBytes = 256;

// write_pct: 50 = YCSB-A, 5 = YCSB-B, 0 = YCSB-C.
void BM_Ycsb(benchmark::State& state) {
  const auto backend = static_cast<storage::KvBackend>(state.range(0));
  const auto write_pct = static_cast<uint64_t>(state.range(1));
  Setup setup(backend, 1);

  // Preload the key space.
  Bytes value(kValueBytes, 0x11);
  for (uint64_t k = 0; k < kKeySpace; ++k) {
    CHECK_OK(setup.services->kv().Put(k, ByteSpan(value.data(), value.size())));
  }

  uint64_t ops = 0;
  const sim::SimTime start = setup.engine.Now();
  for (auto _ : state) {
    const uint64_t key = setup.rng.Zipf(kKeySpace, 0.99);
    if (setup.rng.Uniform(100) < write_pct) {
      auto r = setup.clients[0]->Call(
          {dpu::ServiceId::kKv, dpu::KvOp::kPut,
           dpu::EncodeKvPut(key, ByteSpan(value.data(), value.size()))});
      CHECK_OK(r.status());
    } else {
      auto r = setup.clients[0]->Call(
          {dpu::ServiceId::kKv, dpu::KvOp::kGet, dpu::EncodeKvGet(key)});
      CHECK_OK(r.status());
    }
    ++ops;
  }
  const double seconds = sim::ToSeconds(setup.engine.Now() - start);
  state.counters["sim_kops"] = static_cast<double>(ops) / seconds / 1000.0;
  state.SetLabel(std::string(storage::KvBackendName(backend)) + "/write_pct:" +
                 std::to_string(write_pct));
}

// Client-driven Corfu fast path (the CORFU paper's protocol): each client
// grabs a position from the sequencer (a counter increment, ~100 ns of
// shell logic serialized at the DPU) and then writes *directly* to the
// stripe unit owning that position. Writes from concurrent clients land on
// different flash channels and overlap; the round completes when the last
// one does. Throughput therefore scales with clients until the channel
// parallelism (8 here) saturates — the expected shape.
void BM_CorfuAppendScaling(benchmark::State& state) {
  const auto clients = static_cast<uint64_t>(state.range(0));
  sim::Engine engine;
  net::Fabric fabric(&engine);
  const net::HostId dpu_host = fabric.AddHost("hyperion");
  std::vector<net::HostId> client_hosts;
  for (uint64_t c = 0; c < clients; ++c) {
    client_hosts.push_back(fabric.AddHost("client" + std::to_string(c)));
  }
  nvme::FlashDevice flash(1u << 20);  // stripe units = flash channels (8)
  constexpr sim::Duration kSequencerStep = 100;
  constexpr uint64_t kEntryBlocks = 1;  // 512 B entries round to one LBA

  uint64_t tail = 0;
  uint64_t appends = 0;
  const sim::SimTime start = engine.Now();
  for (auto _ : state) {
    // One round: every client appends once, concurrently.
    const sim::SimTime round_start = engine.Now();
    sim::SimTime round_end = round_start;
    for (uint64_t c = 0; c < clients; ++c) {
      const sim::Duration to_dpu = *fabric.OneWayLatency(client_hosts[c], dpu_host, 64);
      // Sequencer grants serialize (tiny); data writes stripe channels.
      const sim::SimTime seq_done =
          round_start + to_dpu + kSequencerStep * (c + 1);
      const uint64_t position = tail++;
      const sim::Duration write =
          flash.ServiceTime(position, kEntryBlocks, /*is_write=*/true, seq_done);
      const sim::Duration back = *fabric.OneWayLatency(dpu_host, client_hosts[c], 64);
      round_end = std::max(round_end, seq_done + write + back);
      ++appends;
    }
    engine.AdvanceTo(round_end);
  }
  const double seconds = sim::ToSeconds(engine.Now() - start);
  state.counters["sim_kappends_per_s"] = static_cast<double>(appends) / seconds / 1000.0;
  state.counters["log_tail"] = static_cast<double>(tail);
  state.SetLabel("clients:" + std::to_string(clients));
}

void RegisterAll() {
  for (storage::KvBackend backend : {storage::KvBackend::kBTree, storage::KvBackend::kHash}) {
    for (int64_t write_pct : {50, 5, 0}) {
      const char* mix = write_pct == 50 ? "A" : write_pct == 5 ? "B" : "C";
      benchmark::RegisterBenchmark(
          (std::string("E9/YCSB-") + mix + "/" + std::string(storage::KvBackendName(backend)))
              .c_str(),
          BM_Ycsb)
          ->Args({static_cast<int64_t>(backend), write_pct})
          ->Iterations(300);
    }
  }
  for (int64_t clients : {1, 2, 4, 8, 16, 32}) {
    benchmark::RegisterBenchmark(("E9/CorfuAppend/clients:" + std::to_string(clients)).c_str(), BM_CorfuAppendScaling)
        ->Args({clients})
        ->Iterations(300);
  }
}

const int kRegistered = (RegisterAll(), 0);

}  // namespace
