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

#include <cstddef>
#include <cstdint>
#include <span>
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

// The instruction budget of a run that names none.
constexpr uint64_t kDefaultInsnBudget = 1u << 20;

struct ExecResult {
  uint64_t return_value = 0;
  uint64_t insns_executed = 0;
};

// Where Vm::RunChain stopped: the first stage whose verdict was not the
// pass verdict (the last stage when every one passed), and that verdict.
struct ChainExit {
  size_t stage = 0;
  uint64_t verdict = 0;
};

// A program decoded once for Vm::Run. Slot i is insns[i] with its opcode
// fields resolved into one dense handler id and its operands widened: an
// immediate sign-extended, LD_IMM64 folded to its value (a map reference
// to its kTagMapRef word), a helper call to the handler of its helper, a
// jump to its absolute target. Slots stay 1:1 with insns, so a pc names
// the same instruction in both and a jump may still land on an LD_IMM64's
// second half. A slot that cannot execute (an unknown op, a register past
// r10, an unknown helper) decodes to a trap, which fails the run only when
// it is reached. Two slots follow the program: one that fails a run whose
// pc reached size(), and the target of every jump that leaves [0, size()].
// Only Decode() builds one.
class Executable {
 public:
  struct Slot {
    uint8_t op = 0;  // handler id (vm.cc)
    uint8_t dst = 0;
    uint8_t src = 0;
    int32_t off = 0;   // memory offset; for a jump, its target pc
    uint64_t imm = 0;  // operand; for a trap, which message it fails with
  };

  // An empty program: a run fails at once as having run off its end.
  Executable();

  size_t size() const { return slots_.size() - kTrailingSlots; }

 private:
  friend Executable Decode(const Program& prog);
  friend class Vm;

  static constexpr size_t kTrailingSlots = 2;

  std::vector<Slot> slots_;  // the program's, then the two trailing slots
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
                         uint64_t insn_budget = kDefaultInsnBudget);
  // One-shot: decodes `prog`, then runs it.
  Result<ExecResult> Run(const Program& prog, MutableByteSpan ctx,
                         uint64_t insn_budget = kDefaultInsnBudget) {
    return Run(Decode(prog), ctx, insn_budget);
  }

  // Runs `stages` in order on one `ctx`, each as Run() would with the
  // default budget, while they answer `pass`. When `insns` is not empty,
  // insns[i] receives stage i's insns_executed for every stage that ran;
  // it must then hold one entry per stage. Fails with the first failing
  // stage's error.
  Result<ChainExit> RunChain(std::span<const Executable> stages, MutableByteSpan ctx,
                             uint64_t pass, std::span<uint64_t> insns = {});

  // When set, runs increment (*counts)[pc] per executed instruction — the
  // profile the HDL cycle model consumes. Must outlive the runs.
  void set_exec_counts(std::vector<uint64_t>* counts) { exec_counts_ = counts; }

 private:
  enum class Access { kLoad, kStore };

  // What Exec answers for a run that failed.
  static constexpr ChainExit kFaulted{~size_t{0}, 0};

  // The one interpreter loop behind Run and RunChain: runs `stages` in
  // order, each on fresh registers and stack with `insn_budget`, while
  // they exit with `pass`, and answers where they stopped (insns[i] gets
  // stage i's insns_executed when insns is not null). On a failure it
  // answers kFaulted, with the reason in fault_. kProfile counts every
  // executed pc into exec_counts_.
  template <bool kProfile>
  ChainExit Exec(std::span<const Executable> stages, MutableByteSpan ctx, uint64_t insn_budget,
                 uint64_t pass, uint64_t* insns);
  ChainExit Exec(std::span<const Executable> stages, MutableByteSpan ctx, uint64_t insn_budget,
                 uint64_t pass, uint64_t* insns) {
    return exec_counts_ != nullptr ? Exec<true>(stages, ctx, insn_budget, pass, insns)
                                   : Exec<false>(stages, ctx, insn_budget, pass, insns);
  }

  // Host address of the `len`-byte window at tagged `addr`, or nullptr when
  // the window leaves its region. A store window also lowers stack_low_.
  template <Access kAccess>
  uint8_t* Window(uint64_t addr, uint64_t len, MutableByteSpan ctx);
  // The sandbox error for a window Window() refused.
  Status Violation(uint64_t addr, Access access) const;

  // Records why a run failed in fault_; out of line, off the handlers'
  // paths.
  [[gnu::cold, gnu::noinline]] void Fail(Status status);
  // map_lookup of the key at `key_addr` in the map `map_ref` names, into
  // *r0; false with fault_ set on a sandbox violation.
  [[gnu::always_inline]] inline bool Lookup(uint64_t map_ref, uint64_t key_addr,
                                            MutableByteSpan ctx, uint64_t* r0);
  // The helpers map_lookup does not cover; false with fault_ set on a
  // sandbox violation.
  bool CallHelper(HelperId helper, const uint64_t* reg, MutableByteSpan ctx, uint64_t* r0);

  MapRegistry* maps_;
  sim::Engine* engine_;
  Rng rng_;
  alignas(8) uint8_t stack_[kStackSize] = {};
  // Lowest stack byte any store has written since the last run began; the
  // next run zeroes the words from there to the top so it starts clean.
  uint32_t stack_low_ = kStackSize;
  std::vector<uint64_t>* exec_counts_ = nullptr;
  // Why the last failed run failed.
  Status fault_;
  // map_update/map_delete arguments, reused across calls.
  Bytes key_;
  Bytes value_;
};

}  // namespace hyperion::ebpf

#endif  // HYPERION_SRC_EBPF_VM_H_
