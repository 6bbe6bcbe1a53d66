// eBPF interpreter VM.
//
// Registers are 64-bit; pointers are *tagged virtual addresses*, never raw
// host pointers, so a buggy (or adversarial) program cannot escape its
// sandbox even if it slips past the verifier. Address layout:
//
//   tag (top byte)   region
//   0x01             stack   (512 bytes below r10)
//   0x02             context (the packet/record handed in r1)
//   0x03             map value (map id + slot handle + offset packed below)
//   0x04             map reference (r1 argument to map helpers)
//
// Every load/store is bounds-checked against its region at runtime; the
// verifier proves the same statically, and tests cross-check the two.

#ifndef HYPERION_SRC_EBPF_VM_H_
#define HYPERION_SRC_EBPF_VM_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/maps.h"
#include "src/sim/engine.h"

namespace hyperion::ebpf {

// Tagged-address construction/inspection (shared with the verifier tests).
constexpr uint64_t kTagShift = 56;
constexpr uint64_t kTagStack = 0x01;
constexpr uint64_t kTagCtx = 0x02;
constexpr uint64_t kTagMapValue = 0x03;
constexpr uint64_t kTagMapRef = 0x04;

constexpr uint64_t MakeTagged(uint64_t tag, uint64_t payload) {
  return (tag << kTagShift) | payload;
}
constexpr uint64_t TagOf(uint64_t addr) { return addr >> kTagShift; }
constexpr uint64_t PayloadOf(uint64_t addr) { return addr & ((1ull << kTagShift) - 1); }

// Map-value payload packing: [map_id:16][handle:24][offset:16].
constexpr uint64_t PackMapValue(uint32_t map_id, uint32_t handle, uint32_t offset) {
  return (static_cast<uint64_t>(map_id) << 40) | (static_cast<uint64_t>(handle) << 16) | offset;
}

struct ExecResult {
  uint64_t return_value = 0;
  uint64_t insns_executed = 0;
};

// A program decoded once for Vm::Run. Slot i is insns[i] with its opcode
// fields resolved into one dense handler id and its operands widened: an
// immediate sign-extended, LD_IMM64 folded to its value (a map reference
// to its kTagMapRef word), a jump to its absolute target. Slots stay 1:1
// with insns, so a pc names the same instruction in both and a jump may
// still land on an LD_IMM64's second half. A slot that cannot execute
// (an unknown op, a register past r10) decodes to a trap, which fails the
// run only when it is reached. Only Decode() builds one.
class Executable {
 public:
  struct Slot {
    uint8_t op = 0;  // handler id (vm.cc)
    uint8_t dst = 0;
    uint8_t src = 0;
    // Memory offset; for a jump, its target pc, or -1 when that lies
    // outside [0, size].
    int32_t off = 0;
    uint64_t imm = 0;  // operand; for a trap, which message it fails with
  };

  size_t size() const { return slots_.size(); }

 private:
  friend Executable Decode(const Program& prog);
  friend class Vm;

  std::vector<Slot> slots_;
};

Executable Decode(const Program& prog);

class Vm {
 public:
  explicit Vm(MapRegistry* maps, sim::Engine* engine = nullptr, uint64_t rng_seed = 42)
      : maps_(maps), engine_(engine), rng_(rng_seed) {}

  // Executes `exe` with r1 = tagged pointer to `ctx` and r2 = ctx.size().
  // Fails with kPermissionDenied on a sandbox violation, kDeadlineExceeded
  // when the instruction budget is exhausted.
  Result<ExecResult> Run(const Executable& exe, MutableByteSpan ctx,
                         uint64_t insn_budget = 1u << 20);
  // One-shot: decodes `prog`, then runs it.
  Result<ExecResult> Run(const Program& prog, MutableByteSpan ctx,
                         uint64_t insn_budget = 1u << 20) {
    return Run(Decode(prog), ctx, insn_budget);
  }

  // When set, Run() increments (*counts)[pc] per executed instruction —
  // the profile the HDL cycle model consumes. Must outlive Run().
  void set_exec_counts(std::vector<uint64_t>* counts) { exec_counts_ = counts; }

 private:
  enum class Access { kLoad, kStore };

  // Host address of the `len`-byte window at tagged `addr`, or nullptr when
  // the window leaves its region. A store window also lowers stack_low_.
  template <Access kAccess>
  uint8_t* Window(uint64_t addr, uint64_t len, MutableByteSpan ctx);
  // The sandbox error for a window Window() refused.
  Status Violation(uint64_t addr, Access access) const;

  Result<uint64_t> CallHelper(HelperId helper, uint64_t r1, uint64_t r2, uint64_t r3,
                              MutableByteSpan ctx);

  MapRegistry* maps_;
  sim::Engine* engine_;
  Rng rng_;
  uint8_t stack_[kStackSize] = {};
  // Lowest stack byte any store has written since the last Run() began;
  // the next Run() zeroes [stack_low_, kStackSize) so it starts clean.
  uint32_t stack_low_ = kStackSize;
  std::vector<uint64_t>* exec_counts_ = nullptr;
  // map_update/map_delete arguments, reused across calls.
  Bytes key_;
  Bytes value_;
};

}  // namespace hyperion::ebpf

#endif  // HYPERION_SRC_EBPF_VM_H_
