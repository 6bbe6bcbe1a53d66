// Quickstart: boot a Hyperion DPU, push verified eBPF logic into a fabric
// slot over the control path, run packets through it, and use the
// network-attached KV service — all without a host CPU anywhere.
//
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "src/dpu/hyperion.h"
#include "src/dpu/services.h"
#include "src/ebpf/assembler.h"

using namespace hyperion;  // NOLINT

int main() {
  // A data-center fabric with one client and one Hyperion DPU on it.
  sim::Engine engine;
  net::Fabric fabric(&engine);
  const net::HostId client = fabric.AddHost("client");
  dpu::Hyperion dpu(&engine, &fabric);

  // 1. Power on. The DPU self-hosts: JTAG self-test, shell bitstream,
  //    single-level-store recovery — no host involved.
  auto boot = dpu.Boot();
  if (!boot.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", boot.status().ToString().c_str());
    return 1;
  }
  std::printf("[boot] DPU up in %.1f ms (virtual time)\n", sim::ToMillis(*boot));

  // 2. Write packet logic in eBPF. The verifier is the OS here: unsafe
  //    programs never reach the fabric.
  auto program = ebpf::Assemble(R"(
      ; accept TCP/443, drop everything else
      ldxb r3, [r1+23]
      mov r0, 0
      jne r3, 6, out
      ldxh r4, [r1+36]
      jne r4, 443, out
      mov r0, 1
  out:
      exit
  )", "https_filter", 64);
  if (!program.ok()) {
    std::fprintf(stderr, "assemble failed: %s\n", program.status().ToString().c_str());
    return 1;
  }

  auto accel = dpu.DeployAccelerator(dpu.config().control_token, *program, /*tenant=*/1);
  if (!accel.ok()) {
    std::fprintf(stderr, "deploy rejected: %s\n", accel.status().ToString().c_str());
    return 1;
  }
  auto info = *dpu.DescribeAccelerator(*accel);
  std::printf("[deploy] '%s' verified + compiled into slot %u (pipeline ILP %.2f)\n",
              program->name.c_str(), info.region, info.mean_ilp);

  // 3. Push packets through the accelerator slot.
  Bytes https_packet(64, 0);
  https_packet[23] = 6;     // TCP
  https_packet[36] = 0xbb;  // port 443 (little-endian u16 0x01bb)
  https_packet[37] = 0x01;
  Bytes udp_packet(64, 0);
  udp_packet[23] = 17;  // UDP

  std::printf("[packet] https -> verdict %llu (expect 1)\n",
              static_cast<unsigned long long>(
                  *dpu.ProcessPacket(*accel, MutableByteSpan(https_packet))));
  std::printf("[packet] udp   -> verdict %llu (expect 0)\n",
              static_cast<unsigned long long>(
                  *dpu.ProcessPacket(*accel, MutableByteSpan(udp_packet))));

  // 4. Use the DPU as a network-attached KV-SSD over Willow-style RPC.
  auto services = dpu::HyperionServices::Install(&dpu);
  if (!services.ok()) {
    std::fprintf(stderr, "services failed: %s\n", services.status().ToString().c_str());
    return 1;
  }
  Rng rng(1);
  auto transport = net::MakeTransport(net::TransportKind::kRdma, &fabric, &rng);
  dpu::RpcClient rpc(transport.get(), client, dpu.host_id(), &dpu.rpc());

  const Bytes value = ToBytes("hello from a CPU-free device");
  const sim::SimTime t0 = engine.Now();
  auto put_result = rpc.Call({dpu::ServiceId::kKv, dpu::KvOp::kPut,
                              dpu::EncodeKvPut(2026, ByteSpan(value.data(), value.size()))});
  if (!put_result.ok() || !put_result->status.ok()) {
    std::fprintf(stderr, "put failed\n");
    return 1;
  }
  auto got = rpc.Call({dpu::ServiceId::kKv, dpu::KvOp::kGet, dpu::EncodeKvGet(2026)});
  std::printf("[kv] put+get over the wire in %.1f us: \"%s\"\n",
              sim::ToMicros(engine.Now() - t0),
              ToString(ByteSpan(got->payload.data(), got->payload.size())).c_str());

  std::printf("[done] host CPU cycles consumed by the datapath: 0\n");
  return 0;
}
