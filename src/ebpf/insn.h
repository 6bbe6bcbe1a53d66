// eBPF instruction set (paper §2.2).
//
// The paper positions eBPF as Hyperion's accelerator-independent
// intermediate representation: frontends lower to eBPF, the verifier proves
// safety, and backends either interpret (vm.h) or compile to spatial
// hardware pipelines (hdl_codegen.h). Encoding follows the Linux uapi: a
// 64-bit instruction word with class/size/mode packed into the opcode,
// 4-bit dst/src registers, a 16-bit signed offset, and a 32-bit immediate.
// LD_IMM64 occupies two slots, and with src=1 references a map by id.

#ifndef HYPERION_SRC_EBPF_INSN_H_
#define HYPERION_SRC_EBPF_INSN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace hyperion::ebpf {

// -- Opcode fields ----------------------------------------------------------

// Instruction class (low 3 bits).
constexpr uint8_t kClassLd = 0x00;
constexpr uint8_t kClassLdx = 0x01;
constexpr uint8_t kClassSt = 0x02;
constexpr uint8_t kClassStx = 0x03;
constexpr uint8_t kClassAlu = 0x04;
constexpr uint8_t kClassJmp = 0x05;
constexpr uint8_t kClassJmp32 = 0x06;
constexpr uint8_t kClassAlu64 = 0x07;

// Size field for memory ops.
constexpr uint8_t kSizeW = 0x00;   // 4 bytes
constexpr uint8_t kSizeH = 0x08;   // 2 bytes
constexpr uint8_t kSizeB = 0x10;   // 1 byte
constexpr uint8_t kSizeDw = 0x18;  // 8 bytes

// Mode field for memory ops.
constexpr uint8_t kModeImm = 0x00;
constexpr uint8_t kModeMem = 0x60;
constexpr uint8_t kModeAtomic = 0xc0;  // STX only; imm selects the op (kAtomicAdd)

// Atomic operation selector (imm field of an atomic STX).
constexpr int32_t kAtomicAdd = 0x00;

// Source operand: immediate (K) or register (X).
constexpr uint8_t kSrcK = 0x00;
constexpr uint8_t kSrcX = 0x08;

// ALU operations (high 4 bits).
constexpr uint8_t kAluAdd = 0x00;
constexpr uint8_t kAluSub = 0x10;
constexpr uint8_t kAluMul = 0x20;
constexpr uint8_t kAluDiv = 0x30;
constexpr uint8_t kAluOr = 0x40;
constexpr uint8_t kAluAnd = 0x50;
constexpr uint8_t kAluLsh = 0x60;
constexpr uint8_t kAluRsh = 0x70;
constexpr uint8_t kAluNeg = 0x80;
constexpr uint8_t kAluMod = 0x90;
constexpr uint8_t kAluXor = 0xa0;
constexpr uint8_t kAluMov = 0xb0;
constexpr uint8_t kAluArsh = 0xc0;
constexpr uint8_t kAluEnd = 0xd0;  // byte-swap: kSrcK = to-LE, kSrcX = to-BE; imm = 16/32/64

// Jump operations (high 4 bits).
constexpr uint8_t kJmpJa = 0x00;
constexpr uint8_t kJmpJeq = 0x10;
constexpr uint8_t kJmpJgt = 0x20;
constexpr uint8_t kJmpJge = 0x30;
constexpr uint8_t kJmpJset = 0x40;
constexpr uint8_t kJmpJne = 0x50;
constexpr uint8_t kJmpJsgt = 0x60;
constexpr uint8_t kJmpJsge = 0x70;
constexpr uint8_t kJmpCall = 0x80;
constexpr uint8_t kJmpExit = 0x90;
constexpr uint8_t kJmpJlt = 0xa0;
constexpr uint8_t kJmpJle = 0xb0;
constexpr uint8_t kJmpJslt = 0xc0;
constexpr uint8_t kJmpJsle = 0xd0;

// Pseudo src_reg value in LD_IMM64 marking a map reference.
constexpr uint8_t kPseudoMapFd = 1;

// Well-known helper function ids (subset of the kernel's).
enum class HelperId : int32_t {
  kMapLookup = 1,   // r1=map, r2=key ptr -> r0 = value ptr or NULL
  kMapUpdate = 2,   // r1=map, r2=key ptr, r3=value ptr, r4=flags -> 0
  kMapDelete = 3,   // r1=map, r2=key ptr -> 0 or -ENOENT
  kKtimeGetNs = 5,  // -> r0 = virtual time, ns
  kGetPrandomU32 = 7,
};

constexpr int kNumRegisters = 11;  // r0..r9 + r10 (frame pointer)
constexpr int kStackSize = 512;    // bytes below r10

struct Insn {
  uint8_t opcode = 0;
  uint8_t dst = 0;  // 4-bit register
  uint8_t src = 0;  // 4-bit register
  int16_t off = 0;
  int32_t imm = 0;

  uint8_t Class() const { return opcode & 0x07; }
  uint8_t AluOp() const { return opcode & 0xf0; }
  uint8_t Size() const { return opcode & 0x18; }
  uint8_t Mode() const { return opcode & 0xe0; }
  bool IsSrcReg() const { return (opcode & 0x08) != 0; }
  bool IsLdImm64() const { return opcode == (kClassLd | kSizeDw | kModeImm); }

  friend bool operator==(const Insn&, const Insn&) = default;
};

// A verified-or-not eBPF program: instructions + the context size contract.
struct Program {
  std::string name;
  std::vector<Insn> insns;
  // Upper bound of the r1 context (packet/record) buffer the program may
  // touch; the verifier enforces accesses within [0, ctx_size).
  uint32_t ctx_size = 1514;
};

// -- Instruction factories (builder-style construction) ----------------------

// LDX: dst = *(size*)(src + off)
Insn LoadMem(uint8_t size, uint8_t dst, uint8_t src, int16_t off);
// STX: *(size*)(dst + off) = src
Insn StoreReg(uint8_t size, uint8_t dst, int16_t off, uint8_t src);
// ST: *(size*)(dst + off) = imm
Insn StoreImm(uint8_t size, uint8_t dst, int16_t off, int32_t imm);
Insn JumpAlways(int16_t off);
Insn Call(HelperId helper);
Insn Exit();
// Emits the two-slot LD_IMM64; appends both slots to `out`.
void LoadImm64(std::vector<Insn>& out, uint8_t dst, uint64_t imm);
// LD_IMM64 referencing map `map_id`.
void LoadMapFd(std::vector<Insn>& out, uint8_t dst, uint32_t map_id);
// Atomic *(size*)(dst + off) += src (BPF_ATOMIC | BPF_ADD). size: kSizeW/kSizeDw.
Insn AtomicAdd(uint8_t size, uint8_t dst, int16_t off, uint8_t src);
// Byte-swap dst to big-endian (`to_be`=true) or little-endian, over the low
// `bits` (16/32/64) with zero-extension.
Insn EndianSwap(uint8_t dst, bool to_be, int32_t bits);

// True when `insn` names a register past r10 in a field it reads or
// writes. The 4-bit wire fields reach r15, so the verifier rejects such an
// instruction and the VM decodes it to a trap.
bool UsesBadRegister(const Insn& insn);

// Disassembles one instruction (best effort, for diagnostics).
std::string Disassemble(const Insn& insn);

// Wire serialization of a whole program (for the control-path RPC that
// ships verified logic to a DPU).
Bytes SerializeProgram(const Program& prog);
Result<Program> ParseProgram(ByteSpan data);

}  // namespace hyperion::ebpf

#endif  // HYPERION_SRC_EBPF_INSN_H_
