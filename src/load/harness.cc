#include "src/load/harness.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace hyperion::load {

namespace {

constexpr uint32_t kReadBlocks = 1;        // blocks per BlockOp::kRead
constexpr uint32_t kScanFabricRegions = 2;  // analytics fabric size

}  // namespace

dpu::RpcResponse OverloadCluster::ServerNode::HandleLsm(uint16_t opcode,
                                                        const Buffer& payload) {
  clock.Advance(1200);  // shell datapath cost, same as the plain services
  switch (opcode) {
    case dpu::KvOp::kPut: {
      Result<dpu::KvPutView> put = dpu::DecodeKvPut(payload);
      if (!put.ok()) {
        return dpu::RpcResponse::Fail(put.status());
      }
      auto seq = lsm->Put(put->key, put->value);
      if (!seq.ok()) {
        return dpu::RpcResponse::Fail(seq.status());
      }
      // The ack barrier: the response leaves only after the WAL group
      // holding this mutation is on media.
      Status synced = lsm->Sync();
      if (!synced.ok()) {
        return dpu::RpcResponse::Fail(synced);
      }
      return dpu::RpcResponse::Ok();
    }
    case dpu::KvOp::kGet: {
      Result<uint64_t> key = dpu::DecodeKvGet(payload);
      if (!key.ok()) {
        return dpu::RpcResponse::Fail(key.status());
      }
      auto got = lsm->Get(*key);
      if (!got.ok()) {
        return dpu::RpcResponse::Fail(got.status());
      }
      ByteWriter out;
      if (got->has_value()) {
        out.PutU8(1);
        out.PutU32(static_cast<uint32_t>((*got)->size()));
        out.PutBytes(ByteSpan((*got)->data(), (*got)->size()));
      } else {
        out.PutU8(0);
      }
      return dpu::RpcResponse::Ok(Buffer(out.Take()));
    }
    default:
      return dpu::RpcResponse::Fail(Unimplemented("unknown LSM opcode"));
  }
}

OverloadCluster::AnalyticsTenant::AnalyticsTenant(OverloadCluster* cluster)
    : exec(cluster->options_.analytics_spatial ? &clock : &cluster->node(0).clock) {
  const OverloadClusterOptions& opts = cluster->options_;
  if (!opts.scan_faults.empty()) {
    injector = std::make_unique<sim::FaultInjector>(exec, opts.scan_faults);
  }
  nvme = std::make_unique<nvme::Controller>(exec);
  if (injector) {
    nvme->SetFaultInjector(injector.get());
  }
  fpga::FabricConfig fabric_config;
  fabric_config.regions = kScanFabricRegions;
  fabric = std::make_unique<fpga::Fabric>(exec, fabric_config);
  if (injector) {
    fabric->SetFaultInjector(injector.get());
  }
  scheduler = std::make_unique<fpga::SlotScheduler>(exec, fabric.get());
  cluster->AddMetrics(obs::Subsystem::kFpga, &scheduler->counters());
  cluster->AddMetrics(obs::Subsystem::kFpga, &fabric->counters());
  cluster->AddMetrics(obs::Subsystem::kNvme, &nvme->counters());

  // Deterministic Parquet table: sequential order ids (tight per-group zone
  // maps, so range predicates prune), mixed-sign amounts, 7 regions.
  table_rows = opts.scan_table_rows;
  std::vector<int64_t> order_id(table_rows);
  std::vector<int64_t> amount(table_rows);
  std::vector<std::string> region(table_rows);
  for (uint64_t i = 0; i < table_rows; ++i) {
    order_id[i] = static_cast<int64_t>(i);
    amount[i] = static_cast<int64_t>((i * 0x9e3779b9ull + 12345) % 100000) - 50000;
    region[i] = std::string("r") + static_cast<char>('0' + (i * 2654435761ull >> 7) % 7);
  }
  format::Schema schema = {{"order_id", format::ColumnType::kInt64},
                           {"amount", format::ColumnType::kInt64},
                           {"region", format::ColumnType::kString}};
  std::vector<format::ColumnData> columns;
  columns.emplace_back(std::move(order_id));
  columns.emplace_back(std::move(amount));
  columns.emplace_back(std::move(region));
  auto batch = format::RecordBatch::Make(std::move(schema), std::move(columns));
  CHECK_OK(batch.status());
  format::ParquetWriteOptions write_options;
  write_options.rows_per_group = opts.scan_rows_per_group;
  auto file = format::WriteParquet(*batch, write_options);
  CHECK_OK(file.status());
  table_groups = static_cast<uint32_t>((table_rows + opts.scan_rows_per_group - 1) /
                                       opts.scan_rows_per_group);
  const uint64_t lbas = (file->size() + nvme::kLbaSize - 1) / nvme::kLbaSize + 8;
  const uint32_t nsid = nvme->AddNamespace(lbas);
  auto stored = format::NvmeParquetFile::Store(nvme.get(), nsid, 0, *file);
  CHECK_OK(stored.status());
  table = std::make_unique<format::NvmeParquetFile>(std::move(*stored));
  kernel = std::make_unique<format::FpgaScanKernel>(exec, fabric.get(), scheduler.get());

  auto handler = [this](uint16_t opcode, const Buffer& payload) {
    return HandleScan(opcode, payload);
  };
  if (opts.analytics_spatial) {
    // Spatial multiplexing: the analytics tenant is its own pipeline (own
    // RpcServer, own node clock) on node 0's shard — KV head-of-line
    // behaviour cannot leak into it, nor it into KV.
    rpc.RegisterService(dpu::ServiceId::kScan, handler);
    endpoint = cluster->AddEndpoint(&rpc, &clock);
  } else {
    // Time-shared contrast arm: scans ride the KV pipeline and advance the
    // KV server's clock — every queued KV request behind a scan waits.
    cluster->node(0).dpu->rpc().RegisterService(dpu::ServiceId::kScan, handler);
  }
}

dpu::RpcResponse OverloadCluster::AnalyticsTenant::HandleScan(uint16_t opcode,
                                                              const Buffer& payload) {
  exec->Advance(1200);  // shell datapath cost, same as the plain services
  switch (opcode) {
    case dpu::ScanOp::kQuery: {
      auto query = format::ParseScanQuery(payload);
      if (!query.ok()) {
        return dpu::RpcResponse::Fail(query.status());
      }
      auto result = kernel->Execute(*table, *query);
      if (!result.ok()) {
        return dpu::RpcResponse::Fail(result.status());
      }
      return dpu::RpcResponse::Ok(Buffer(format::SerializeScanResult(*result)));
    }
    case dpu::ScanOp::kTableInfo: {
      ByteWriter out(20);
      out.PutU64(table_rows);
      out.PutU64(table->file_size());
      out.PutU32(table_groups);
      return dpu::RpcResponse::Ok(Buffer(out.Take()));
    }
    default:
      return dpu::RpcResponse::Fail(Unimplemented("unknown scan opcode"));
  }
}

OverloadCluster::OverloadCluster(const OverloadClusterOptions& options)
    : Cluster(options, options.num_clients + options.analytics_clients + 1), options_(options) {
  CHECK_GT(options_.num_clients, 0u);
  CHECK_GT(options_.requests_per_client, 0u);
  // Id-ordered construction pins the cross-shard source order: server is
  // node 0 (KV endpoint first, analytics endpoint second on the same
  // shard), clients 1..N, analytics clients N+1..N+M.
  ServerNode& server = AddDpuNode<ServerNode>(dpu::NodeConfig(options_));
  server.services = dpu::HyperionServices::Install(&*server.dpu).value();
  if (options_.workload == OverloadWorkload::kLsmKv) {
    // A zoned namespace beside the block namespaces, formatted for the PR 6
    // LSM engine; the engine runs on the server's node clock so its I/O
    // costs land in the served-request latency like every other substrate.
    constexpr uint64_t kZoneLbas = 128;
    constexpr uint32_t kZones = 48;
    const uint32_t nsid = server.dpu->nvme().AddNamespace(kZones * kZoneLbas);
    server.zns = std::make_unique<nvme::ZonedNamespace>(
        nvme::ZonedNamespace::Create(&server.dpu->nvme(), nsid, kZoneLbas).value());
    server.lsm = storage::LsmEngine::Format(storage::LsmDeps{.engine = &server.clock,
                                                             .zns = server.zns.get(),
                                                             .injector = nullptr})
                     .value();
    server.dpu->rpc().RegisterService(dpu::ServiceId::kLsmKv,
                                      [&server](uint16_t opcode, const Buffer& payload) {
                                        return server.HandleLsm(opcode, payload);
                                      });
  }
  server.endpoint->SetOverloadPolicy(options_.policy);
  if (options_.analytics_clients > 0) {
    analytics_ = std::make_unique<AnalyticsTenant>(this);
  }
  for (uint32_t id = 1; id < num_nodes(); ++id) {
    AddClientNode<ClientNode>().analytics = id > options_.num_clients;
  }
}

OverloadResult OverloadCluster::Run() {
  BeginRun();
  if (options_.workload == OverloadWorkload::kLsmKv) {
    // Warm dataset, installed directly (no wire) before the measured phase.
    storage::LsmEngine& lsm = *node<ServerNode>(0).lsm;
    for (uint64_t key = 0; key < options_.kv_key_space; ++key) {
      Bytes value(options_.kv_value_bytes, static_cast<uint8_t>(key * 131 + 17));
      CHECK_OK(lsm.Put(key, ByteSpan(value.data(), value.size())).status());
    }
    CHECK_OK(lsm.Sync());
  }
  // Clients start after the server's boot and preload; client nodes own no
  // pipeline to drain.
  const sim::SimTime start = StartTime(/*clock_nodes=*/1);
  for (uint32_t id = 1; id < num_nodes(); ++id) {
    ClientNode& client = node<ClientNode>(id);
    LoadGenOptions arrivals;  // open loop; client nodes start 7 ns apart
    arrivals.start = start + (id - 1) * 7;
    if (client.analytics) {
      arrivals.interarrival = options_.scan_interarrival;
      arrivals.total_requests = options_.scan_requests_per_client;
    } else {
      arrivals.interarrival = options_.interarrival;
      arrivals.total_requests = options_.requests_per_client;
      arrivals.deadline = options_.deadline;
    }
    client.gen = std::make_unique<LoadGen>(
        &engine().shard(client.shard), arrivals,
        client.analytics ? ScanRequests(client) : KvRequests(client));
    client.gen->Start();
  }
  engine().Run();

  OverloadResult result;
  sim::Histogram latency;
  sim::Histogram scan_latency;
  sim::Histogram reconfig;
  for (uint32_t id = 1; id < num_nodes(); ++id) {
    const ClientNode& client = node<ClientNode>(id);
    const LoadStats& stats = client.gen->stats();
    if (stats.last_completion > start) {
      result.makespan_ns = std::max(result.makespan_ns, stats.last_completion - start);
    }
    if (client.analytics) {
      result.scan_issued += stats.issued;
      result.scan_ok += stats.ok;
      result.scan_rejected += stats.rejected;
      result.scan_failed += stats.failed + stats.deadline_missed;
      result.scan_fingerprint ^= client.scan_fingerprint;
      result.scan_rows_matched += client.scan_rows_matched;
      result.scan_chunk_bytes += client.scan_chunk_bytes;
      result.scan_device_bytes += client.scan_device_bytes;
      result.scan_groups_skipped += client.scan_groups_skipped;
      result.scan_reconfigs += client.scan_reconfigs;
      reconfig.Merge(client.reconfig_latency);
      scan_latency.Merge(client.gen->latency());
    } else {
      result.issued += stats.issued;
      result.ok += stats.ok;
      result.rejected += stats.rejected;
      result.failed += stats.failed;
      result.deadline_missed += stats.deadline_missed;
      latency.Merge(client.gen->latency());
    }
  }
  const Node& server = node(0);
  const sim::Counters& counters = server.endpoint->counters();
  result.served = counters.Get("rpc_async_served");
  result.admitted = counters.Get("rpc_admitted");
  result.shed_queue = counters.Get("rpc_shed_queue");
  result.shed_deadline = counters.Get("rpc_shed_deadline");
  result.messages = engine().stats().messages;
  result.server_clock_ns = server.clock.Now();
  dpu::FillLatency(latency, &result.latency_count, &result.latency_p50_ns,
                   &result.latency_p99_ns, &result.latency_max_ns);
  result.scan_reconfig_p50_ns = reconfig.P50();
  result.scan_reconfig_max_ns = reconfig.max();
  dpu::FillLatency(scan_latency, &result.scan_latency_count, &result.scan_latency_p50_ns,
                   &result.scan_latency_p99_ns, &result.scan_latency_max_ns);
  return result;
}

LoadGen::IssueFn OverloadCluster::KvRequests(ClientNode& client) {
  const uint64_t max_slba = options_.lbas_per_device - kReadBlocks;
  dpu::ShardedRpcNode* server = node(0).endpoint;
  return [this, &client, server, max_slba](uint64_t seq, sim::SimTime deadline,
                                           LoadGen::DoneFn done) {
    dpu::RpcRequest request;
    if (options_.workload == OverloadWorkload::kLsmKv) {
      // Deterministic per-(client, seq) key and op mix: layout cannot
      // change what any client issues.
      const uint64_t h = (seq * 0x9e3779b97f4a7c15ull) ^ (uint64_t{client.id} << 32);
      const uint64_t key = h % options_.kv_key_space;
      const bool write = (h >> 33) % 100 < options_.kv_write_pct;
      request.service = dpu::ServiceId::kLsmKv;
      if (write) {
        request.opcode = dpu::KvOp::kPut;
        const Bytes value(options_.kv_value_bytes, static_cast<uint8_t>(h >> 56 | 1));
        request.payload = Buffer(dpu::EncodeKvPut(key, ByteSpan(value.data(), value.size())));
      } else {
        request.opcode = dpu::KvOp::kGet;
        request.payload = Buffer(dpu::EncodeKvGet(key));
      }
    } else {
      request.service = dpu::ServiceId::kBlock;
      request.opcode = dpu::BlockOp::kRead;
      ByteWriter payload(16);
      payload.PutU32(1);  // nsid
      payload.PutU64((seq * 97 + uint64_t{client.id} * 7919) % max_slba);
      payload.PutU32(kReadBlocks);
      request.payload = Buffer(payload.Take());
    }
    request.deadline = deadline;  // kNever == kNoDeadline: none
    client.endpoint->CallAsync(server, request,
                               [done = std::move(done)](dpu::RpcResponse response) {
                                 done(OutcomeOf(response));
                               });
  };
}

LoadGen::IssueFn OverloadCluster::ScanRequests(ClientNode& client) {
  dpu::ShardedRpcNode* target =
      options_.analytics_spatial ? analytics_->endpoint : node(0).endpoint;
  const uint64_t table_rows = options_.scan_table_rows;
  return [&client, target, table_rows](uint64_t seq, sim::SimTime deadline,
                                       LoadGen::DoneFn done) {
    // Deterministic per-(client, seq) query: the kernel kind rotates
    // (forcing ICAP swaps on a small fabric) and the predicate range
    // walks the order-id space (zone maps prune most groups).
    const uint64_t h = (seq * 0x9e3779b97f4a7c15ull) ^ (uint64_t{client.id} << 32);
    format::ScanQuery query;
    query.kind = static_cast<format::ScanKernelKind>(h % format::kScanKernelKindCount);
    query.filter_column = "order_id";
    const uint64_t span = std::max<uint64_t>(1, table_rows / 8);
    const uint64_t lo = (h >> 8) % (table_rows - span + 1);
    query.lo = static_cast<int64_t>(lo);
    query.hi = static_cast<int64_t>(lo + span - 1);
    query.value_column = "amount";
    query.group_column = "region";
    dpu::RpcRequest request;
    request.service = dpu::ServiceId::kScan;
    request.opcode = dpu::ScanOp::kQuery;
    request.payload = Buffer(format::SerializeScanQuery(query));
    request.deadline = deadline;
    client.endpoint->CallAsync(
        target, request,
        [&client, h, done = std::move(done)](dpu::RpcResponse response) {
          if (const Outcome outcome = OutcomeOf(response); outcome != Outcome::kOk) {
            done(outcome);
            return;
          }
          auto scan = format::ParseScanResult(response.payload);
          if (!scan.ok()) {
            done(Outcome::kFailed);
            return;
          }
          // Commutative folds only: completion order across clients is
          // not layout-pinned, per-(client, seq) salting keeps the
          // fingerprint sensitive to which query produced what.
          client.scan_fingerprint ^=
              scan->output.Fingerprint() ^ (h * 0x2545f4914f6cdd1dull);
          client.scan_rows_matched += scan->output.rows_matched;
          client.scan_chunk_bytes += scan->stats.chunk_bytes_fetched;
          client.scan_device_bytes += scan->stats.device_bytes_moved;
          client.scan_groups_skipped += scan->stats.groups_skipped;
          if (scan->stats.reconfigured) {
            ++client.scan_reconfigs;
            client.reconfig_latency.Record(scan->stats.reconfig_ns);
          }
          done(Outcome::kOk);
        });
  };
}

}  // namespace hyperion::load
