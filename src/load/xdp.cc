#include "src/load/xdp.h"

#include <algorithm>
#include <array>
#include <string>

#include "src/common/check.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/verifier.h"
#include "src/load/loadgen.h"
#include "src/sim/energy.h"

namespace hyperion::load {

namespace {

constexpr uint64_t kFlowIndexId = 0x2A;
// The flow table's buckets live on the HBM tier (fast, non-durable).
constexpr mem::SegmentHints kFlowHints{.durable = false, .performance_critical = true};
constexpr uint16_t kBackendPort = 7000;

// Packet dispositions folded into the verdict hash (arrival order).
constexpr uint64_t kDispRxDrop = 0;
constexpr uint64_t kDispBanned = 1;
constexpr uint64_t kDispAuthReport = 2;
constexpr uint64_t kDispAuthShed = 3;
constexpr uint64_t kDispFastTx = 4;
constexpr uint64_t kDispSlowForward = 5;
constexpr uint64_t kDispSlowShed = 6;
constexpr uint64_t kDispTeardown = 7;

// The match/action chain, in the order the frames meet it.
constexpr size_t kGuardStage = 0;
constexpr size_t kLbStage = 2;
constexpr size_t kStageCount = 3;

// A flow-table record: the backend's address and port, then the flow's
// packet count.
constexpr size_t kFlowRecordBytes = 4 + 2 + 8;

// The 8-byte flow id the fabric stages compute from the header fields:
// (src_ip << 32 | dst_ip) ^ (src_port | dst_port << 16). Mirrors the
// ldxw/lsh/or/xor sequence in xdp_flow / xdp_lb below.
uint64_t FrontKeyOf(const apps::FlowKey& flow) {
  const uint64_t ips = (uint64_t{flow.src_ip} << 32) | flow.dst_ip;
  const uint64_t ports = uint64_t{flow.src_port} | (uint64_t{flow.dst_port} << 16);
  return ips ^ ports;
}

std::array<uint8_t, 4> U32Key(uint32_t v) {
  std::array<uint8_t, 4> key;
  SetU32(key, 0, v);
  return key;
}

std::array<uint8_t, 8> U64Key(uint64_t v) {
  std::array<uint8_t, 8> key;
  SetU64(key, 0, v);
  return key;
}

// Stage 1 — SSH brute-force guard. TCP to the auth port probes the banned
// map: hits DROP in-fabric, misses REDIRECT to fail2ban. Everything else
// PASSes untouched.
std::string GuardSource(uint32_t banned_map) {
  return R"(
      mov r9, r1
      ldxb r2, [r9+23]
      jne r2, 6, pass
      ldxh r3, [r9+36]
      jne r3, 22, pass
      ldxw r4, [r9+26]
      stxw [r10-4], r4
      ld_map_fd r1, )" +
         std::to_string(banned_map) + R"(
      mov r2, r10
      add r2, -4
      call map_lookup
      jeq r0, 0, report
      mov r0, 1
      exit
  report:
      mov r0, 4
      exit
  pass:
      mov r0, 2
      exit
  )";
}

// Stage 2 — heavy-hitter accounting. Front-map hits count the packet
// in-fabric and PASS; misses try to claim a front slot (first flows win —
// the ramp opens the hot set first) and REDIRECT to the flow-table tier.
std::string FlowSource(uint32_t front_map) {
  const std::string fd = std::to_string(front_map);
  return R"(
      mov r9, r1
      ldxw r3, [r9+26]
      lsh r3, 32
      ldxw r4, [r9+30]
      or r3, r4
      ldxw r5, [r9+34]
      xor r3, r5
      stxdw [r10-8], r3
      ld_map_fd r1, )" +
         fd + R"(
      mov r2, r10
      add r2, -8
      call map_lookup
      jeq r0, 0, miss
      ldxdw r6, [r0+0]
      add r6, 1
      stxdw [r0+0], r6
      mov r0, 2
      exit
  miss:
      stdw [r10-16], 1
      ld_map_fd r1, )" +
         fd + R"(
      mov r2, r10
      add r2, -8
      mov r3, r10
      add r3, -16
      mov r4, 0
      call map_update
      mov r0, 4
      exit
  )";
}

// Stage 3 — forwarding match. Pinned, non-teardown flows TX in-fabric;
// unpinned flows and FIN/RST REDIRECT to the load balancer.
std::string LbSource(uint32_t pins_map) {
  return R"(
      mov r9, r1
      ldxw r3, [r9+26]
      lsh r3, 32
      ldxw r4, [r9+30]
      or r3, r4
      ldxw r5, [r9+34]
      xor r3, r5
      stxdw [r10-8], r3
      ld_map_fd r1, )" +
         std::to_string(pins_map) + R"(
      mov r2, r10
      add r2, -8
      call map_lookup
      jeq r0, 0, slow
      ldxb r6, [r9+47]
      and r6, 5
      jne r6, 0, slow
      mov r0, 3
      exit
  slow:
      mov r0, 4
      exit
  )";
}

std::array<uint8_t, kFlowRecordBytes> FlowRecord(const apps::Backend& backend, uint64_t count) {
  std::array<uint8_t, kFlowRecordBytes> value;
  SetU32(value, 0, backend.ip);
  SetU16(value, 4, backend.port);
  SetU64(value, 6, count);
  return value;
}

}  // namespace

Result<std::unique_ptr<XdpPipeline>> XdpPipeline::Create(dpu::Hyperion* dpu, XdpOptions options) {
  if (!dpu->booted()) {
    return Unavailable("boot the DPU first");
  }
  if (options.rx_batch == 0) {
    return InvalidArgument("rx batch must be positive");
  }
  if (options.backends == 0) {
    return InvalidArgument("need at least one backend");
  }
  if (options.front_entries == 0) {
    options.front_entries = options.trace.hot_flows;
  }
  auto pipeline = std::unique_ptr<XdpPipeline>(new XdpPipeline(dpu, options));
  RETURN_IF_ERROR(pipeline->BuildDataPath());
  return pipeline;
}

Status XdpPipeline::BuildDataPath() {
  const std::string& token = dpu_->config().control_token;
  backends_.reserve(options_.backends);
  for (uint32_t i = 0; i < options_.backends; ++i) {
    backends_.push_back(apps::Backend{kBackendIpBase + i, kBackendPort});
  }

  // Fabric-resident maps, shared so the control path accepts any tenant.
  ebpf::MapSpec banned_spec{ebpf::MapType::kHash, 4, 8, 4096, "xdp_banned", ebpf::kSharedMap};
  ASSIGN_OR_RETURN(banned_map_, dpu_->CreateMap(token, banned_spec));
  ebpf::MapSpec front_spec{ebpf::MapType::kHash, 8, 8, options_.front_entries, "xdp_front",
                           ebpf::kSharedMap};
  ASSIGN_OR_RETURN(front_map_, dpu_->CreateMap(token, front_spec));
  ebpf::MapSpec pins_spec{ebpf::MapType::kHash, 8, 8, options_.front_entries, "xdp_pins",
                          ebpf::kSharedMap};
  ASSIGN_OR_RETURN(pins_map_, dpu_->CreateMap(token, pins_spec));

  ASSIGN_OR_RETURN(ebpf::Program guard,
                   ebpf::Assemble(GuardSource(banned_map_), "xdp_guard", PacketTrace::kCtxBytes));
  ASSIGN_OR_RETURN(ebpf::Program flow,
                   ebpf::Assemble(FlowSource(front_map_), "xdp_flow", PacketTrace::kCtxBytes));
  ASSIGN_OR_RETURN(ebpf::Program lb,
                   ebpf::Assemble(LbSource(pins_map_), "xdp_lb", PacketTrace::kCtxBytes));

  if (options_.use_fpga) {
    std::vector<fpga::MatchActionStageSpec> specs;
    specs.push_back({std::move(guard), options_.codegen});
    specs.push_back({std::move(flow), options_.codegen});
    specs.push_back({std::move(lb), options_.codegen});
    ASSIGN_OR_RETURN(ma_, fpga::MatchActionPipeline::Create(&dpu_->fabric(), &dpu_->maps(),
                                                            std::move(specs)));
  } else {
    // Host arm: verification is still the gate, then the same programs run
    // serially on the interpreter at kernel networking cost.
    for (const ebpf::Program* program : {&guard, &flow, &lb}) {
      RETURN_IF_ERROR(ebpf::Verify(*program, dpu_->maps()).status());
      host_stages_.push_back(ebpf::Decode(*program));
    }
    host_vm_ = std::make_unique<ebpf::Vm>(&dpu_->maps());
    host_ = std::make_unique<baseline::HostCpu>(dpu_->engine());
  }

  ASSIGN_OR_RETURN(storage::HashIndex flows,
                   storage::HashIndex::Create(&dpu_->store(), kFlowIndexId, options_.flow_buckets,
                                              kFlowHints));
  flows_ = std::make_unique<storage::HashIndex>(std::move(flows));
  ASSIGN_OR_RETURN(lb_, apps::LoadBalancer::Create(dpu_, backends_, options_.lb_resident,
                                                   options_.lb_spill_buckets));
  ASSIGN_OR_RETURN(fail2ban_, apps::Fail2Ban::Create(dpu_));
  return Status::Ok();
}

void XdpPipeline::NoteVerdict(uint64_t disposition) {
  verdict_hash_ = (verdict_hash_ ^ disposition) * 0x100000001b3ull;
}

Status XdpPipeline::SlowPath(const TraceFrameMeta& meta, sim::SimTime packet_arrival,
                             const NewFlowFn& on_new_flow, uint64_t* disposition) {
  sim::Engine* clock = dpu_->engine();
  ++tallies_.slow_packets;
  if (clock->Now() < packet_arrival) {
    clock->AdvanceTo(packet_arrival);
  }
  if (admission_.Decide(packet_arrival, clock->Now(), packet_arrival + kSlowDeadline) !=
      sim::AdmissionDecision::kAdmit) {
    ++tallies_.slow_shed;
    *disposition = kDispSlowShed;
    return Status::Ok();
  }
  ++tallies_.slow_admitted;

  const bool teardown = (meta.packet.tcp_flags & (apps::kTcpFin | apps::kTcpRst)) != 0;
  const auto key_bytes = meta.packet.flow.Serialize();
  const ByteSpan key(key_bytes);
  const auto front_key = U64Key(FrontKeyOf(meta.packet.flow));

  if (teardown) {
    Status deleted = flows_->Delete(key);
    if (deleted.ok()) {
      ++tallies_.teardowns;
    } else if (deleted.code() != StatusCode::kNotFound) {
      return deleted;
    }
    RETURN_IF_ERROR(lb_->Route(meta.packet).status());
    // Unpin from the fabric maps so the chain stops TXing the dead flow.
    (void)dpu_->maps().Get(pins_map_)->Delete(front_key);
    (void)dpu_->maps().Get(front_map_)->Delete(front_key);
    *disposition = kDispTeardown;
  } else {
    Result<Bytes> record = flows_->Get(key);
    if (record.ok()) {
      // Established cold flow: bump its packet count in place (same-size
      // overwrite -> value-bytes-only write on the HBM tier).
      apps::Backend backend;
      backend.ip = GetU32(ByteSpan(record->data(), record->size()), 0);
      backend.port = GetU16(ByteSpan(record->data(), record->size()), 4);
      const uint64_t count = GetU64(ByteSpan(record->data(), record->size()), 6) + 1;
      const auto value = FlowRecord(backend, count);
      RETURN_IF_ERROR(flows_->Put(key, value));
      ++tallies_.flow_updates;
    } else if (record.status().code() == StatusCode::kNotFound) {
      // New flow (ramp SYN, or a flow whose registration was shed): place
      // it, track it, pin it, and hand it to the spray hook.
      ASSIGN_OR_RETURN(apps::Backend backend, lb_->Route(meta.packet));
      const auto value = FlowRecord(backend, 1);
      RETURN_IF_ERROR(flows_->Put(key, value));
      ++tallies_.flow_inserts;
      // Best effort: the pin map holds the hot set; beyond capacity the
      // flow simply stays on the slow path.
      (void)dpu_->maps().Get(pins_map_)->Put(front_key.data(),
                                             U64Key(backend.ip - kBackendIpBase).data());
      ++tallies_.sprayed;
      if (on_new_flow) {
        on_new_flow(meta.packet.flow, backend, clock->Now());
      }
    } else {
      return record.status();
    }
    *disposition = kDispSlowForward;
  }
  admission_.OnAdmitted(packet_arrival, clock->Now());
  return Status::Ok();
}

Status XdpPipeline::ProcessBatch(uint64_t first, uint32_t count, sim::SimTime arrival,
                                 const NewFlowFn& on_new_flow) {
  CHECK_GT(count, 0u);
  sim::Engine* clock = dpu_->engine();
  if (!started_) {
    started_ = true;
    t0_ = arrival - trace_.ArrivalOf(first);
    steady_first_arrival_ = t0_ + trace_.SteadyStart();
  }
  if (clock->Now() < arrival) {
    clock->AdvanceTo(arrival);
  }
  ++tallies_.rx_batches;
  tallies_.rx_frames += count;
  const sim::Duration wire = trace_.FrameWireTime();
  // The batch is handed onward once its last frame is fully received
  // (ramp frames are setup-paced, steady frames wire-paced).
  const sim::SimTime batch_received = t0_ + trace_.ArrivalOf(first + count - 1) + wire;

  // NIC ring flow control: retire batches whose service completed before
  // this one arrived, then claim a slot — or shed the whole batch.
  while (!rx_in_flight_.empty() && rx_in_flight_.front() <= arrival) {
    rx_in_flight_.pop_front();
    rx_credits_.Release();
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (first + i >= trace_.ramp_packets()) {
      ++steady_offered_;
    }
  }
  if (!rx_credits_.TryAcquire()) {
    tallies_.rx_overflow += count;
    for (uint32_t i = 0; i < count; ++i) {
      NoteVerdict(kDispRxDrop);
    }
    return Status::Ok();
  }

  // Fabric service: store-and-forward at batch granularity, overlapped
  // with everything the slow path does on the node clock.
  obs::SpanId root = 0;
  obs::TraceContext root_ctx;
  if (tracer_ != nullptr) {
    root = tracer_->BeginAsync(obs::Subsystem::kEngine, "xdp_batch", arrival);
    root_ctx = tracer_->ContextOf(root);
    tracer_->End(tracer_->BeginAsync(obs::Subsystem::kNet, "rx", arrival, root_ctx),
                 batch_received);
  }
  sim::SimTime fabric_done = 0;
  if (ma_) {
    const sim::SimTime fabric_start = std::max(fabric_busy_, batch_received);
    const sim::Duration service = ma_->BatchTime(count);
    fabric_done = fabric_start + service;
    fabric_busy_ = fabric_done;
    dpu_->energy().Busy(sim::DpuPowerIds::kFabric, service);
    if (tracer_ != nullptr) {
      sim::SimTime cursor = fabric_start;
      for (size_t s = 0; s < ma_->StageCount(); ++s) {
        const fpga::MatchActionStageInfo& info = ma_->stage(s);
        const sim::Duration fill = sim::CyclesToTime(info.critical_path_cycles, info.fmax_mhz);
        tracer_->End(tracer_->BeginAsync(obs::Subsystem::kFpga, "ma/" + info.name, cursor,
                                         root_ctx),
                     cursor + fill);
        cursor += fill;
      }
      if (fabric_done > cursor) {
        tracer_->End(tracer_->BeginAsync(obs::Subsystem::kFpga, "ma/stream", cursor, root_ctx),
                     fabric_done);
      }
    }
  } else {
    host_->Interrupt();  // NAPI-style: one IRQ + one syscall per batch
    host_->Syscall();
  }

  // Per-frame functional pass + slow-path work. Span attribution for the
  // slow path is accumulated as durations and laid out sequentially after
  // the loop (ops of one batch are contiguous on the node clock).
  const sim::SimTime slow_window_start = std::max(clock->Now(), arrival);
  sim::Duration store_time = 0;
  sim::Duration app_time = 0;
  sim::Duration host_time = 0;
  uint8_t frame[PacketTrace::kCtxBytes];
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t index = first + i;
    const sim::SimTime packet_arrival = t0_ + trace_.ArrivalOf(first + i);
    const TraceFrameMeta meta = trace_.FrameAt(index, MutableByteSpan(frame, sizeof frame));
    const bool steady = meta.phase == TracePhase::kSteady;
    // One chain call per frame: guard, flow and LB run while they PASS.
    uint64_t stage_insns[kStageCount];
    ASSIGN_OR_RETURN(const ebpf::ChainExit chain,
                     ma_ ? ma_->RunChain(MutableByteSpan(frame, sizeof frame))
                         : host_vm_->RunChain(host_stages_, MutableByteSpan(frame, sizeof frame),
                                              fpga::kXdpPass, stage_insns));
    const bool banned = chain.stage == kGuardStage && chain.verdict == fpga::kXdpDrop;
    sim::SimTime mark = clock->Now();
    if (host_) {
      // The kernel stack, then each stage that ran at ~1 cycle per
      // interpreted instruction. A banned frame's cost stays out of the
      // host_stack span.
      host_->NetStackPacket();
      for (size_t stage = 0; stage <= chain.stage; ++stage) {
        host_->Compute(stage_insns[stage]);
      }
      if (!banned) {
        host_time += clock->Now() - mark;
        mark = clock->Now();
      }
    }
    uint64_t disposition = kDispFastTx;
    if (banned) {
      ++tallies_.drop_banned;
      disposition = kDispBanned;
    } else if (chain.stage == kGuardStage) {
      // REDIRECT, an auth attempt: durable fail2ban accounting, behind
      // admission (the audit log is flash-priced work the attacker is
      // trying to flood).
      if (clock->Now() < packet_arrival) {
        clock->AdvanceTo(packet_arrival);
        mark = clock->Now();
      }
      if (admission_.Decide(packet_arrival, clock->Now(), packet_arrival + kSlowDeadline) !=
          sim::AdmissionDecision::kAdmit) {
        ++tallies_.auth_shed;
        disposition = kDispAuthShed;
      } else {
        ASSIGN_OR_RETURN(apps::Fail2Ban::Verdict verdict,
                         fail2ban_->OnAuthAttempt(meta.packet.flow.src_ip, /*auth_failed=*/true));
        if (verdict == apps::Fail2Ban::Verdict::kBanned) {
          // Push the ban into the fabric: from now on this source drops at
          // stage 1 for zero slow-path cost.
          RETURN_IF_ERROR(dpu_->maps()
                              .Get(banned_map_)
                              ->Update(U32Key(meta.packet.flow.src_ip), U64Key(1))
                              .status());
        }
        admission_.OnAdmitted(packet_arrival, clock->Now());
        app_time += clock->Now() - mark;
        ++tallies_.auth_reports;
        disposition = kDispAuthReport;
      }
    } else {
      // Reaching the LB stage means the flow stage counted a front-map hit;
      // a pinned flow then TXes in-fabric, anything else takes the slow
      // path.
      if (chain.stage == kLbStage) {
        ++tallies_.fast_hits;
      }
      if (chain.stage == kLbStage && chain.verdict == fpga::kXdpTx) {
        ++tallies_.fast_tx;
      } else {
        RETURN_IF_ERROR(SlowPath(meta, packet_arrival, on_new_flow, &disposition));
        store_time += clock->Now() - mark;
      }
    }
    NoteVerdict(disposition);
    if (steady &&
        (disposition == kDispFastTx || disposition == kDispSlowForward ||
         disposition == kDispTeardown)) {
      ++steady_delivered_;
    }
  }

  const sim::SimTime batch_service_done = ma_ ? std::max(fabric_done, clock->Now()) : clock->Now();
  rx_in_flight_.push_back(batch_service_done);
  if (tracer_ != nullptr) {
    sim::SimTime cursor = slow_window_start;
    if (host_time > 0) {
      tracer_->End(tracer_->BeginAsync(obs::Subsystem::kNet, "host_stack", cursor, root_ctx),
                   cursor + host_time);
      cursor += host_time;
    }
    if (store_time > 0) {
      tracer_->End(tracer_->BeginAsync(obs::Subsystem::kStore, "flow_table", cursor, root_ctx),
                   cursor + store_time);
      cursor += store_time;
    }
    if (app_time > 0) {
      tracer_->End(tracer_->BeginAsync(obs::Subsystem::kApp, "fail2ban", cursor, root_ctx),
                   cursor + app_time);
    }
    tracer_->End(root, std::max(batch_service_done, batch_received));
  }
  return Status::Ok();
}

Status XdpPipeline::Run(const NewFlowFn& on_new_flow) {
  const sim::SimTime t0 = dpu_->engine()->Now() + 1000;
  const uint64_t total = trace_.total_packets();
  for (uint64_t first = 0; first < total; first += options_.rx_batch) {
    const uint32_t count =
        static_cast<uint32_t>(std::min<uint64_t>(options_.rx_batch, total - first));
    RETURN_IF_ERROR(ProcessBatch(first, count, t0 + trace_.ArrivalOf(first), on_new_flow));
  }
  return Status::Ok();
}

XdpStats XdpPipeline::Snapshot() const {
  XdpStats stats = tallies_;
  stats.bans = fail2ban_->bans_issued();
  const storage::HashIndexStats flow_stats = flows_->Stats();
  stats.flow_entries = flow_stats.entries;
  stats.flow_max_chain = flow_stats.max_chain;
  stats.flow_mean_chain = flow_stats.mean_chain;
  stats.flow_overflow_buckets = flow_stats.overflow_buckets;
  stats.flow_occupancy = flow_stats.occupancy;
  const apps::LoadBalancerStats& lb_stats = lb_->stats();
  stats.lb_new_flows = lb_stats.new_flows;
  stats.lb_spills = lb_stats.spills;
  stats.lb_spill_hits = lb_stats.spill_hits;
  stats.lb_spill_entries = lb_->spill().EntryCount();
  stats.clock_ns = dpu_->engine()->Now();
  stats.fabric_busy_ns = ma_ ? fabric_busy_ : stats.clock_ns;
  stats.steady_offered = steady_offered_;
  stats.steady_delivered = steady_delivered_;
  if (steady_offered_ > 0) {
    const sim::SimTime steady_end = std::max(stats.fabric_busy_ns, stats.clock_ns);
    stats.steady_window_ns =
        steady_end > steady_first_arrival_ ? steady_end - steady_first_arrival_ : 0;
  }
  stats.verdict_hash = verdict_hash_;
  return stats;
}

// -- XdpCluster --------------------------------------------------------------

namespace {

constexpr sim::Duration kSprayDeadline = 2 * sim::kMillisecond;  // relative

}  // namespace

XdpCluster::XdpCluster(const XdpClusterOptions& options)
    : Cluster(options, options.num_backends + 1), options_(options) {
  CHECK_GT(options_.num_backends, 0u);
  CHECK_GT(options_.spray_sample, 0u);
  // The pipeline's backend ring mirrors the cluster layout 1:1.
  options_.xdp.backends = options_.num_backends;
  // Id-ordered construction pins cross-shard source order: ingress is
  // node 0, backends 1..N (the OverloadCluster scheme). The ingress raises
  // the node config to what the flow table needs; its directory lives on
  // the HBM tier, sized for the root buckets plus chain growth.
  const dpu::HyperionConfig config = dpu::NodeConfig(options_);
  dpu::HyperionConfig ingress_config = config;
  ingress_config.lbas_per_device = std::max<uint64_t>(config.lbas_per_device, 65536);
  ingress_config.hbm_bytes =
      std::max<uint64_t>(config.hbm_bytes, uint64_t{options_.xdp.flow_buckets} * 4096 * 2);
  ingress_config.dram_bytes = std::max<uint64_t>(config.dram_bytes, 128ull << 20);
  IngressNode& ingress = AddDpuNode<IngressNode>(ingress_config);
  ingress.pipeline = XdpPipeline::Create(&*ingress.dpu, options_.xdp).value();
  ingress.pipeline->set_tracer(AddTracer(ingress));
  for (uint32_t id = 1; id < num_nodes(); ++id) {
    BackendNode& backend = AddDpuNode<BackendNode>(config);
    backend.services = dpu::HyperionServices::Install(&*backend.dpu).value();
    backend.endpoint->SetOverloadPolicy(options_.policy);
  }
}

void XdpCluster::SprayFlow(const apps::FlowKey& key, const apps::Backend& backend,
                           sim::SimTime now) {
  if (spray_seen_++ % options_.spray_sample != 0) {
    return;
  }
  const uint32_t id = 1 + backend.ip - XdpPipeline::kBackendIpBase;
  dpu::RpcRequest request;
  request.service = dpu::ServiceId::kKv;
  request.opcode = dpu::KvOp::kPut;
  const auto flow_bytes = key.Serialize();
  request.payload = Buffer(dpu::EncodeKvPut(key.Hash(), flow_bytes));
  request.deadline = now + kSprayDeadline;
  ++spray_issued_;
  node(0).endpoint->CallAsync(&endpoint(id), request, [this](dpu::RpcResponse response) {
    switch (OutcomeOf(response)) {
      case Outcome::kOk: ++spray_ok_; break;
      case Outcome::kRejected: ++spray_rejected_; break;
      case Outcome::kFailed: ++spray_failed_; break;
    }
  });
}

void XdpCluster::ScheduleBatch(uint64_t first) {
  XdpPipeline& pipeline = *node<IngressNode>(0).pipeline;
  const PacketTrace& trace = pipeline.trace();
  if (first >= trace.total_packets()) {
    return;
  }
  const uint32_t count = static_cast<uint32_t>(
      std::min<uint64_t>(options_.xdp.rx_batch, trace.total_packets() - first));
  const sim::SimTime when = start_ + trace.ArrivalOf(first);
  engine().shard(node(0).shard).ScheduleAt(when, [this, &pipeline, first, count, when] {
    Status status = pipeline.ProcessBatch(
        first, count, when,
        [this](const apps::FlowKey& key, const apps::Backend& backend, sim::SimTime now) {
          SprayFlow(key, backend, now);
        });
    CHECK(status.ok()) << status.message();
    ScheduleBatch(first + uint64_t{count});
  });
}

XdpClusterResult XdpCluster::Run() {
  BeginRun();
  // Packets arrive once the ingress has drained boot; the backends only
  // answer sprays.
  start_ = StartTime(/*clock_nodes=*/1);
  ScheduleBatch(0);
  engine().Run();

  const IngressNode& ingress = node<IngressNode>(0);
  XdpClusterResult result;
  result.xdp = ingress.pipeline->Snapshot();
  result.spray_issued = spray_issued_;
  result.spray_ok = spray_ok_;
  result.spray_rejected = spray_rejected_;
  result.spray_failed = spray_failed_;
  sim::SimTime latest = std::max(ingress.clock.Now(), ingress.pipeline->fabric_busy());
  for (uint32_t id = 1; id < num_nodes(); ++id) {
    const Node& backend = node(id);
    const sim::Counters& counters = backend.endpoint->counters();
    result.backend_served += counters.Get("rpc_async_served");
    result.backend_shed +=
        counters.Get("rpc_shed_queue") + counters.Get("rpc_shed_deadline");
    latest = std::max(latest, backend.clock.Now());
  }
  result.messages = engine().stats().messages;
  result.ingress_clock_ns = ingress.clock.Now();
  result.makespan_ns = latest > start_ ? latest - start_ : 0;
  return result;
}

}  // namespace hyperion::load
