// Hyperion's network-attached data services (paper §2.4): KV-SSD, B+ tree
// with offloaded *and* client-driven access, and the Corfu-style shared
// log — all served from the DPU's single-level store through the
// Willow-style RPC layer, with zero host CPU anywhere.

#ifndef HYPERION_SRC_DPU_SERVICES_H_
#define HYPERION_SRC_DPU_SERVICES_H_

#include <memory>

#include "src/dpu/hyperion.h"
#include "src/dpu/rpc.h"
#include "src/storage/bptree.h"
#include "src/storage/corfu.h"
#include "src/storage/kv.h"

namespace hyperion::dpu {

// RPC opcodes per service.
struct KvOp {
  static constexpr uint16_t kPut = 1;     // [key u64][len u32][value]
  static constexpr uint16_t kGet = 2;     // [key u64] -> [value]
  static constexpr uint16_t kDelete = 3;  // [key u64]
  static constexpr uint16_t kScan = 4;    // [lo u64][hi u64] -> [n u32]{[key][len][value]}*
};

// The one codec of the kPut and kGet request payloads above, shared by every
// client that sends them and by both servers that take them: the KV service
// here and the LSM service of load::OverloadCluster.
Bytes EncodeKvPut(uint64_t key, ByteSpan value);
Bytes EncodeKvGet(uint64_t key);

struct KvPutView {
  uint64_t key = 0;
  ByteSpan value;  // a view into the decoded payload
};
// A put shorter than its [key][len] header, or whose len overruns the
// payload, is InvalidArgument. Bytes past the value are ignored.
Result<KvPutView> DecodeKvPut(ByteSpan payload);
// A get shorter than its key is InvalidArgument. Bytes past it are ignored.
Result<uint64_t> DecodeKvGet(ByteSpan payload);

struct TreeOp {
  static constexpr uint16_t kGet = 1;       // offloaded walk: [key u64] -> [value]
  static constexpr uint16_t kReadNode = 2;  // client-driven: [node_id u64] -> raw node bytes
  static constexpr uint16_t kInfo = 3;      // -> [tree_id u64][root u64][height u32]
};
struct LogOp {
  static constexpr uint16_t kAppend = 1;   // [data] -> [position u64]
  static constexpr uint16_t kRead = 2;     // [position u64] -> [data]
  static constexpr uint16_t kTail = 3;     // -> [tail u64]
  static constexpr uint16_t kFill = 4;     // [position u64]
  static constexpr uint16_t kTrim = 5;     // [prefix u64]
};
struct BlockOp {
  // NVMe-oF-style block access (§2.3 "block-level offloaded accesses").
  static constexpr uint16_t kRead = 1;      // [nsid u32][slba u64][blocks u32] -> data
  static constexpr uint16_t kWrite = 2;     // [nsid u32][slba u64][data]
  static constexpr uint16_t kFlush = 3;     // [nsid u32]
  static constexpr uint16_t kIdentify = 4;  // -> [count u32]{[capacity u64]}*
};
struct ScanOp {
  // Analytics scan pushdown (PR 10): Parquet queries executed by FPGA scan
  // kernels reading directly from NVMe (format/scan_kernel.h wire codecs).
  static constexpr uint16_t kQuery = 1;      // SerializeScanQuery -> SerializeScanResult
  static constexpr uint16_t kTableInfo = 2;  // -> [rows u64][file_size u64][groups u32]
};
// The kApp service needs no opcode table: the opcode *is* the accelerator
// id returned by ControlOp::kDeploy, the payload is the program's context
// buffer, and the response is [r0 u64][mutated ctx] — Willow's
// user-programmable-SSD RPC realized with verified eBPF.
struct ControlOp {
  static constexpr uint16_t kDeploy = 1;    // [token str][tenant u32][program] -> [accel u32]
  static constexpr uint16_t kBoot = 2;      // -> [boot_ns u64]
  static constexpr uint16_t kUndeploy = 3;  // [token str][accel u32]
  // [token str][tenant u32][type u8][key u32][value u32][entries u32][name str] -> [map u32]
  static constexpr uint16_t kCreateMap = 4;
  // Raw (pre-synthesized) bitstream load over the control network port:
  // [token str][tenant u32][name str][size u64][slices u32][fmax_mhz_x10 u32] -> [region u32]
  static constexpr uint16_t kLoadBitstream = 5;
};

// Instantiates the service state on a booted DPU and registers the RPC
// handlers. Owns the KV store, tree, and log.
class HyperionServices {
 public:
  // `kv_backend` picks the index layout for the KV service.
  static Result<std::unique_ptr<HyperionServices>> Install(
      Hyperion* dpu, storage::KvBackend kv_backend = storage::KvBackend::kBTree);

  storage::KvStore& kv() { return *kv_; }
  storage::BPlusTree& tree() { return *tree_; }
  storage::CorfuLog& log() { return *log_; }

 private:
  explicit HyperionServices(Hyperion* dpu) : dpu_(dpu) {}

  void Register();
  // Handlers take the request payload as a shared Buffer: value bytes are
  // sliced out of it (put/append/write paths) or adopted from the store
  // (get/read paths) — the shell never copies a payload it can reference.
  RpcResponse HandleKv(uint16_t opcode, const Buffer& payload);
  RpcResponse HandleTree(uint16_t opcode, const Buffer& payload);
  RpcResponse HandleLog(uint16_t opcode, const Buffer& payload);
  RpcResponse HandleBlock(uint16_t opcode, const Buffer& payload);
  RpcResponse HandleApp(uint16_t opcode, const Buffer& payload);
  RpcResponse HandleControl(uint16_t opcode, const Buffer& payload);

  // Fixed fabric cost of request parse/dispatch in the shell pipeline.
  void ChargeShell();

  Hyperion* dpu_;
  std::unique_ptr<storage::KvStore> kv_;
  std::unique_ptr<storage::BPlusTree> tree_;
  std::unique_ptr<storage::CorfuLog> log_;
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_SERVICES_H_
