// Experiment E6 — eBPF as the IR, interpreted vs compiled to a spatial
// pipeline (§2.2, the hXDP/eHDL lineage).
//
// Three representative programs (a packet filter, a map-updating flow
// counter, and a header parser with wide independent field extraction) run
// against the same packet stream two ways:
//   interpreter   one instruction per ~2.5 ns (a tuned software eBPF VM on
//                 a 3 GHz core, ubpf-class);
//   fpga_pipeline the list-scheduled pipeline at 250 MHz, cycles from the
//                 hdl_codegen cost model and the instrumented profile.
// Reported: sim_ns_per_packet (latency), sim_mpps (throughput), mean_ilp.
//
// Expected shape (the hXDP/eHDL result): the 3 GHz core wins single-packet
// *latency*, but the spatial pipeline accepts a new packet every initiation
// interval, so on *throughput* the filter/parser programs beat the
// interpreter severalfold; the map-helper-serialized program only reaches
// rough parity (the shared helper engine bounds its II).

#include <benchmark/benchmark.h>

#include "src/ebpf/assembler.h"
#include "src/ebpf/hdl_codegen.h"
#include "src/ebpf/verifier.h"
#include "src/ebpf/vm.h"

namespace {

using namespace hyperion;  // NOLINT

// ~2.5 ns per interpreted instruction: a software VM dispatch loop.
constexpr double kInterpreterNsPerInsn = 2.5;

struct Workload {
  const char* name;
  const char* source;
  bool needs_map;
};

const Workload kWorkloads[] = {
    {"filter",
     R"(
        ldxb r3, [r1+23]        ; ip proto
        mov r0, 0
        jne r3, 6, done         ; keep TCP only
        ldxh r4, [r1+36]        ; dst port
        jne r4, 443, done
        mov r0, 1
     done:
        exit
     )",
     false},
    {"flow_counter",
     R"(
        ldxw r6, [r1+26]        ; src ip as the flow key
        stxw [r10-4], r6
        ld_map_fd r1, 0
        mov r2, r10
        add r2, -4
        call map_lookup
        jne r0, 0, hit
        stdw [r10-16], 1
        ld_map_fd r1, 0
        mov r2, r10
        add r2, -4
        mov r3, r10
        add r3, -16
        mov r4, 0
        call map_update
        mov r0, 0
        exit
     hit:
        ldxdw r7, [r0+0]
        add r7, 1
        stxdw [r0+0], r7
        mov r0, 1
        exit
     )",
     true},
    {"parser",
     R"(
        ldxh r2, [r1+12]        ; ethertype
        ldxb r3, [r1+14]        ; version/ihl
        ldxb r4, [r1+23]        ; proto
        ldxw r5, [r1+26]        ; src
        ldxw r6, [r1+30]        ; dst
        mov r7, r5
        xor r7, r6
        mov r8, r2
        and r8, 0xff
        add r7, r8
        mov r0, r7
        and r0, 0xffff
        exit
     )",
     false},
};

void BM_EbpfExecution(benchmark::State& state) {
  const Workload& workload = kWorkloads[state.range(0)];
  const bool pipelined = state.range(1) != 0;

  ebpf::MapRegistry maps;
  if (workload.needs_map) {
    maps.Create({ebpf::MapType::kHash, 4, 8, 4096, "flows"});
  }
  auto prog = ebpf::Assemble(workload.source, workload.name, 64);
  CHECK_OK(prog.status());
  CHECK_OK(ebpf::Verify(*prog, maps).status());
  // eHDL-flavoured fabric: 8 lanes, dual-ported packet/stack memory, a
  // 4-cycle CAM-based map engine.
  auto plan = ebpf::CompileToPipeline(*prog, {.lanes = 8, .mem_ports = 2, .helper_cycles = 4});
  CHECK_OK(plan.status());

  const ebpf::Executable exe = ebpf::Decode(*prog);
  ebpf::Vm vm(&maps);
  std::vector<uint64_t> counts(exe.size(), 0);
  vm.set_exec_counts(&counts);
  Rng rng(3);

  uint64_t packets = 0;
  uint64_t interp_insns = 0;
  for (auto _ : state) {
    Bytes packet(64, 0);
    packet[23] = rng.Bernoulli(0.5) ? 6 : 17;
    packet[36] = 0x01;
    packet[37] = 0xbb;  // 443 big-endian... stored LE by the program's ldxh
    PutU32(packet, static_cast<uint32_t>(rng.Uniform(256)));  // perturb
    auto run = vm.Run(exe, MutableByteSpan(packet));
    if (!run.ok()) {
      state.SkipWithError("vm trap");
      return;
    }
    interp_insns += run->insns_executed;
    ++packets;
  }
  const uint64_t pipeline_cycles = ebpf::EstimateCycles(*plan, counts);
  const double pipeline_ns =
      static_cast<double>(sim::CyclesToTime(pipeline_cycles, plan->options.fmax_mhz));
  const double interp_ns = static_cast<double>(interp_insns) * kInterpreterNsPerInsn;
  const double latency_ns =
      (pipelined ? pipeline_ns : interp_ns) / static_cast<double>(packets);
  // Throughput: the interpreter is run-to-completion on one core; the
  // pipeline overlaps packets at its initiation interval.
  const double ns_per_cycle = 1000.0 / plan->options.fmax_mhz;
  const double throughput_ns_per_packet =
      pipelined ? static_cast<double>(plan->InitiationInterval()) * ns_per_cycle : latency_ns;
  state.counters["sim_ns_per_packet"] = latency_ns;
  state.counters["sim_mpps"] = 1000.0 / throughput_ns_per_packet;
  state.counters["initiation_interval"] = static_cast<double>(plan->InitiationInterval());
  state.counters["mean_ilp"] = plan->MeanIlp();
  state.SetLabel(std::string(workload.name) + (pipelined ? "/fpga_pipeline" : "/interpreter"));
}

void RegisterAll() {
  for (int w = 0; w < 3; ++w) {
    for (int pipelined : {0, 1}) {
      benchmark::RegisterBenchmark((std::string("E6/Ebpf/") + kWorkloads[w].name +
              (pipelined != 0 ? "/fpga_pipeline" : "/interpreter")).c_str(),
          BM_EbpfExecution)
          ->Args({w, pipelined})
          ->Iterations(5000);
    }
  }
}

const int kRegistered = (RegisterAll(), 0);

}  // namespace
