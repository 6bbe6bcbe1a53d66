#include "src/ebpf/vm.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/check.h"

namespace hyperion::ebpf {

// Loads and stores copy the host's bytes as they are; eBPF memory is
// little-endian.
static_assert(std::endian::native == std::endian::little);

namespace {

// Handler ids. An ALU or conditional-jump handler is one of four variants
// (64/32-bit, immediate/register operand) in its operation's block of
// four, the blocks indexed by the opcode's high nibble.
constexpr uint8_t kAluHandlers = 0;
constexpr uint8_t kJmpHandlers = 64;

constexpr uint8_t Variant(uint8_t block, uint8_t op, bool is64, bool reg_operand) {
  return static_cast<uint8_t>(block + 4 * (op >> 4) + (is64 ? 0 : 2) + (reg_operand ? 1 : 0));
}

enum Handler : uint8_t {
  kEndLe16 = kJmpHandlers + 64,
  kEndLe32,
  kEndLe64,
  kEndBe16,
  kEndBe32,
  kEndBe64,
  kLdImm64,
  kLdxB,  // then H, W, DW (SizeIndex order), likewise for kStB and kStxB
  kStB = kLdxB + 4,
  kStxB = kStB + 4,
  kAtomicAddW = kStxB + 4,
  kAtomicAddDw,
  kJa,
  kCall,
  kExit,
  kTrap,
};

// Trap messages, indexed by a trap slot's imm.
enum Trap : uint8_t {
  kBadEndianWidth,
  kUnknownAluOp,
  kMalformedLd,
  kUnsupportedAtomic,
  kUnknownJumpOp,
  kBadRegister,
};
constexpr const char* kTrapMessages[] = {
    "bad endian width",
    "unknown ALU op",
    "malformed LD instruction",
    "unsupported atomic operation",
    "unknown jump op",
    "bad register number",
};

// 1, 2, 4 and 8-byte accesses in that order.
uint8_t SizeIndex(uint8_t size_field) {
  switch (size_field) {
    case kSizeB:
      return 0;
    case kSizeH:
      return 1;
    case kSizeW:
      return 2;
    default:
      return 3;
  }
}

Executable::Slot DecodeSlot(const std::vector<Insn>& insns, size_t pc) {
  const Insn& insn = insns[pc];
  Executable::Slot slot;
  slot.dst = insn.dst;
  slot.src = insn.src;
  slot.off = insn.off;
  slot.imm = static_cast<uint64_t>(static_cast<int64_t>(insn.imm));
  const auto trap = [&slot](Trap which) {
    slot.op = kTrap;
    slot.imm = which;
    return slot;
  };
  const uint8_t cls = insn.Class();
  const uint8_t op = insn.AluOp();
  switch (cls) {
    case kClassAlu:
    case kClassAlu64:
      if (op == kAluEnd) {
        if (insn.imm != 16 && insn.imm != 32 && insn.imm != 64) {
          return trap(kBadEndianWidth);
        }
        slot.op = static_cast<uint8_t>((insn.IsSrcReg() ? kEndBe16 : kEndLe16) +
                                       std::countr_zero(static_cast<uint32_t>(insn.imm)) - 4);
      } else if (op > kAluArsh) {
        return trap(kUnknownAluOp);
      } else {
        slot.op = Variant(kAluHandlers, op, cls == kClassAlu64, insn.IsSrcReg());
      }
      break;
    case kClassLd:
      if (!insn.IsLdImm64() || pc + 1 >= insns.size()) {
        return trap(kMalformedLd);
      }
      slot.op = kLdImm64;
      slot.imm = insn.src == kPseudoMapFd
                     ? MakeTagged(kTagMapRef, static_cast<uint32_t>(insn.imm))
                     : (static_cast<uint64_t>(static_cast<uint32_t>(insns[pc + 1].imm)) << 32) |
                           static_cast<uint32_t>(insn.imm);
      break;
    case kClassLdx:
      slot.op = kLdxB + SizeIndex(insn.Size());
      break;
    case kClassSt:
      slot.op = kStB + SizeIndex(insn.Size());
      break;
    case kClassStx:
      if (insn.Mode() != kModeAtomic) {
        slot.op = kStxB + SizeIndex(insn.Size());
      } else if (insn.imm == kAtomicAdd && insn.Size() == kSizeW) {
        slot.op = kAtomicAddW;
      } else if (insn.imm == kAtomicAdd && insn.Size() == kSizeDw) {
        slot.op = kAtomicAddDw;
      } else {
        return trap(kUnsupportedAtomic);
      }
      break;
    default:  // kClassJmp, kClassJmp32
      if (op == kJmpExit) {
        slot.op = kExit;
      } else if (op == kJmpCall) {
        slot.op = kCall;
      } else if (op > kJmpJsle) {
        return trap(kUnknownJumpOp);
      } else {
        slot.op = op == kJmpJa ? uint8_t{kJa}
                               : Variant(kJmpHandlers, op, cls == kClassJmp, insn.IsSrcReg());
        const int64_t target = static_cast<int64_t>(pc) + 1 + insn.off;
        slot.off = target < 0 || static_cast<size_t>(target) > insns.size()
                       ? -1
                       : static_cast<int32_t>(target);
      }
      break;
  }
  if (UsesBadRegister(insn)) {
    return trap(kBadRegister);
  }
  return slot;
}

template <uint8_t kOp, bool kIs64>
uint64_t Alu(uint64_t a, uint64_t b) {
  if constexpr (!kIs64) {
    a &= 0xffffffffull;
    b &= 0xffffffffull;
  }
  constexpr uint64_t kShiftMask = kIs64 ? 63 : 31;
  uint64_t out;
  if constexpr (kOp == kAluAdd) {
    out = a + b;
  } else if constexpr (kOp == kAluSub) {
    out = a - b;
  } else if constexpr (kOp == kAluMul) {
    out = a * b;
  } else if constexpr (kOp == kAluDiv) {
    out = b == 0 ? 0 : a / b;
  } else if constexpr (kOp == kAluOr) {
    out = a | b;
  } else if constexpr (kOp == kAluAnd) {
    out = a & b;
  } else if constexpr (kOp == kAluLsh) {
    out = a << (b & kShiftMask);
  } else if constexpr (kOp == kAluRsh) {
    out = a >> (b & kShiftMask);
  } else if constexpr (kOp == kAluNeg) {
    out = ~a + 1;
  } else if constexpr (kOp == kAluMod) {
    out = b == 0 ? a : a % b;
  } else if constexpr (kOp == kAluXor) {
    out = a ^ b;
  } else if constexpr (kOp == kAluMov) {
    out = b;
  } else if constexpr (kIs64) {  // kAluArsh
    out = static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63));
  } else {
    out = static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
  }
  if constexpr (!kIs64) {
    out &= 0xffffffffull;
  }
  return out;
}

// JMP32 compares the zero-extended low halves, signed comparisons included.
template <uint8_t kOp, bool kIs64>
bool Taken(uint64_t a, uint64_t b) {
  if constexpr (!kIs64) {
    a &= 0xffffffffull;
    b &= 0xffffffffull;
  }
  const auto sa = static_cast<int64_t>(a);
  const auto sb = static_cast<int64_t>(b);
  if constexpr (kOp == kJmpJeq) {
    return a == b;
  } else if constexpr (kOp == kJmpJne) {
    return a != b;
  } else if constexpr (kOp == kJmpJgt) {
    return a > b;
  } else if constexpr (kOp == kJmpJge) {
    return a >= b;
  } else if constexpr (kOp == kJmpJlt) {
    return a < b;
  } else if constexpr (kOp == kJmpJle) {
    return a <= b;
  } else if constexpr (kOp == kJmpJset) {
    return (a & b) != 0;
  } else if constexpr (kOp == kJmpJsgt) {
    return sa > sb;
  } else if constexpr (kOp == kJmpJsge) {
    return sa >= sb;
  } else if constexpr (kOp == kJmpJslt) {
    return sa < sb;
  } else {  // kJmpJsle
    return sa <= sb;
  }
}

template <typename T>
uint64_t Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void Store(uint8_t* p, uint64_t v) {
  const auto narrowed = static_cast<T>(v);
  std::memcpy(p, &narrowed, sizeof narrowed);
}

}  // namespace

Executable Decode(const Program& prog) {
  Executable exe;
  exe.slots_.reserve(prog.insns.size());
  for (size_t pc = 0; pc < prog.insns.size(); ++pc) {
    exe.slots_.push_back(DecodeSlot(prog.insns, pc));
  }
  return exe;
}

template <Vm::Access kAccess>
inline uint8_t* Vm::Window(uint64_t addr, uint64_t len, MutableByteSpan ctx) {
  const uint64_t payload = PayloadOf(addr);
  switch (TagOf(addr)) {
    case kTagStack:
      if (payload > kStackSize || len > kStackSize - payload) {
        return nullptr;
      }
      if constexpr (kAccess == Access::kStore) {
        stack_low_ = std::min(stack_low_, static_cast<uint32_t>(payload));
      }
      return &stack_[payload];
    case kTagCtx:
      if (payload > ctx.size() || len > ctx.size() - payload) {
        return nullptr;
      }
      return ctx.data() + payload;
    case kTagMapValue: {
      const auto handle = static_cast<uint32_t>((payload >> 16) & 0xffffff);
      const auto offset = static_cast<uint32_t>(payload & 0xffff);
      Map* map = maps_->Get(static_cast<uint32_t>(payload >> 40));
      if (map == nullptr || offset > map->spec().value_size ||
          len > map->spec().value_size - offset || !map->HasSlot(handle)) {
        return nullptr;
      }
      return map->MutableValue(handle).data() + offset;
    }
    default:
      return nullptr;
  }
}

Status Vm::Violation(uint64_t addr, Access access) const {
  const bool load = access == Access::kLoad;
  switch (TagOf(addr)) {
    case kTagStack:
      return PermissionDenied(load ? "stack load out of bounds" : "stack store out of bounds");
    case kTagCtx:
      return PermissionDenied(load ? "ctx load out of bounds" : "ctx store out of bounds");
    case kTagMapValue:
      if (maps_->Get(static_cast<uint32_t>(PayloadOf(addr) >> 40)) == nullptr) {
        return PermissionDenied(load ? "load through bad map pointer"
                                     : "store through bad map pointer");
      }
      return PermissionDenied(load ? "map value load out of bounds"
                                   : "map value store out of bounds");
    default:
      return PermissionDenied(load ? "load through non-pointer value"
                                   : "store through non-pointer value");
  }
}

Result<uint64_t> Vm::CallHelper(HelperId helper, uint64_t r1, uint64_t r2, uint64_t r3,
                                MutableByteSpan ctx) {
  // Map helpers: r1 is the map, r2 the key and (update) r3 the value. A
  // lookup hashes the key where it lies; update and delete copy it first,
  // since Map::Update may move the values a key or value pointer aliases.
  // The flags in r4 are not read: only BPF_ANY semantics are modelled.
  const auto map_arg = [&](const char* no_map, const char* unknown) -> Result<Map*> {
    if (TagOf(r1) != kTagMapRef) {
      return PermissionDenied(no_map);
    }
    Map* map = maps_->Get(static_cast<uint32_t>(PayloadOf(r1)));
    if (map == nullptr) {
      return PermissionDenied(unknown);
    }
    return map;
  };
  const auto copy_in = [&](uint64_t addr, uint32_t len, Bytes& out) -> Status {
    const uint8_t* p = Window<Access::kLoad>(addr, len, ctx);
    if (p == nullptr) {
      return Violation(addr, Access::kLoad);
    }
    out.assign(p, p + len);
    return Status::Ok();
  };
  switch (helper) {
    case HelperId::kMapLookup: {
      ASSIGN_OR_RETURN(Map * map,
                       map_arg("map_lookup: r1 is not a map", "map_lookup: unknown map"));
      const uint32_t key_size = map->spec().key_size;
      const uint8_t* key = Window<Access::kLoad>(r2, key_size, ctx);
      if (key == nullptr) {
        return Violation(r2, Access::kLoad);
      }
      const std::optional<uint32_t> handle = map->LookupHandle(ByteSpan(key, key_size));
      if (!handle) {
        return uint64_t{0};  // NULL: program must branch on it
      }
      return MakeTagged(kTagMapValue,
                        PackMapValue(static_cast<uint32_t>(PayloadOf(r1)), *handle, 0));
    }
    case HelperId::kMapUpdate: {
      ASSIGN_OR_RETURN(Map * map,
                       map_arg("map_update: r1 is not a map", "map_update: unknown map"));
      RETURN_IF_ERROR(copy_in(r2, map->spec().key_size, key_));
      RETURN_IF_ERROR(copy_in(r3, map->spec().value_size, value_));
      return map->Update(key_, value_).ok() ? uint64_t{0} : static_cast<uint64_t>(-1);
    }
    case HelperId::kMapDelete: {
      ASSIGN_OR_RETURN(Map * map,
                       map_arg("map_delete: r1 is not a map", "map_delete: unknown map"));
      RETURN_IF_ERROR(copy_in(r2, map->spec().key_size, key_));
      return map->Delete(key_).ok() ? uint64_t{0} : static_cast<uint64_t>(-1);
    }
    case HelperId::kKtimeGetNs:
      return engine_ != nullptr ? engine_->Now() : uint64_t{0};
    case HelperId::kGetPrandomU32:
      return rng_.Next() & 0xffffffffull;
  }
  return PermissionDenied("unknown helper id");
}

// One case per handler id. `s` is the slot at the pc the loop just
// advanced past; a handler that jumps overwrites `pc`.
#define HYPERION_ALU_CASES(OP)                               \
  case Variant(kAluHandlers, OP, true, false):               \
    reg[s.dst] = Alu<OP, true>(reg[s.dst], s.imm);           \
    break;                                                   \
  case Variant(kAluHandlers, OP, true, true):                \
    reg[s.dst] = Alu<OP, true>(reg[s.dst], reg[s.src]);      \
    break;                                                   \
  case Variant(kAluHandlers, OP, false, false):              \
    reg[s.dst] = Alu<OP, false>(reg[s.dst], s.imm);          \
    break;                                                   \
  case Variant(kAluHandlers, OP, false, true):               \
    reg[s.dst] = Alu<OP, false>(reg[s.dst], reg[s.src]);     \
    break;

#define HYPERION_BRANCH(taken)                                  \
  if (taken) {                                                  \
    if (s.off < 0) {                                            \
      return PermissionDenied("jump out of program");           \
    }                                                           \
    pc = static_cast<size_t>(s.off);                            \
  }                                                             \
  break;

#define HYPERION_JMP_CASES(OP)                                      \
  case Variant(kJmpHandlers, OP, true, false):                      \
    HYPERION_BRANCH((Taken<OP, true>(reg[s.dst], s.imm)))           \
  case Variant(kJmpHandlers, OP, true, true):                       \
    HYPERION_BRANCH((Taken<OP, true>(reg[s.dst], reg[s.src])))      \
  case Variant(kJmpHandlers, OP, false, false):                     \
    HYPERION_BRANCH((Taken<OP, false>(reg[s.dst], s.imm)))          \
  case Variant(kJmpHandlers, OP, false, true):                      \
    HYPERION_BRANCH((Taken<OP, false>(reg[s.dst], reg[s.src])))

// Loads address [src + off], stores [dst + off]; a refused window fails
// the run with the sandbox error.
#define HYPERION_STORE(TYPE, VALUE)                                             \
  {                                                                             \
    const uint64_t addr = reg[s.dst] + static_cast<uint64_t>(int64_t{s.off});   \
    uint8_t* p = Window<Access::kStore>(addr, sizeof(TYPE), ctx);               \
    if (p == nullptr) {                                                         \
      return Violation(addr, Access::kStore);                                   \
    }                                                                           \
    Store<TYPE>(p, VALUE);                                                      \
    break;                                                                      \
  }

#define HYPERION_MEM_CASES(INDEX, TYPE)                                          \
  case kLdxB + INDEX: {                                                          \
    const uint64_t addr = reg[s.src] + static_cast<uint64_t>(int64_t{s.off});    \
    const uint8_t* p = Window<Access::kLoad>(addr, sizeof(TYPE), ctx);           \
    if (p == nullptr) {                                                          \
      return Violation(addr, Access::kLoad);                                     \
    }                                                                            \
    reg[s.dst] = Load<TYPE>(p);                                                  \
    break;                                                                       \
  }                                                                              \
  case kStB + INDEX:                                                             \
    HYPERION_STORE(TYPE, s.imm)                                                  \
  case kStxB + INDEX:                                                            \
    HYPERION_STORE(TYPE, reg[s.src])

Result<ExecResult> Vm::Run(const Executable& exe, MutableByteSpan ctx, uint64_t insn_budget) {
  // Stack stores are the only writers of stack_, so zeroing from the lowest
  // byte the last run stored to gives every run empty working memory.
  std::memset(stack_ + stack_low_, 0, kStackSize - stack_low_);
  stack_low_ = kStackSize;
  uint64_t reg[kNumRegisters] = {};
  reg[1] = MakeTagged(kTagCtx, 0);
  reg[2] = ctx.size();
  reg[10] = MakeTagged(kTagStack, kStackSize);

  const Executable::Slot* slots = exe.slots_.data();
  const size_t size = exe.size();
  uint64_t* counts = exec_counts_ != nullptr ? exec_counts_->data() : nullptr;
  const size_t counted = counts != nullptr ? std::min(size, exec_counts_->size()) : 0;
  uint64_t executed = 0;
  size_t pc = 0;
  while (true) {
    if (pc >= size) {
      return PermissionDenied("program counter ran off the end");
    }
    if (executed >= insn_budget) {
      return DeadlineExceeded("instruction budget exhausted");
    }
    ++executed;
    if (pc < counted) {
      ++counts[pc];
    }
    const Executable::Slot& s = slots[pc++];
    switch (s.op) {
      HYPERION_ALU_CASES(kAluAdd)
      HYPERION_ALU_CASES(kAluSub)
      HYPERION_ALU_CASES(kAluMul)
      HYPERION_ALU_CASES(kAluDiv)
      HYPERION_ALU_CASES(kAluOr)
      HYPERION_ALU_CASES(kAluAnd)
      HYPERION_ALU_CASES(kAluLsh)
      HYPERION_ALU_CASES(kAluRsh)
      HYPERION_ALU_CASES(kAluNeg)
      HYPERION_ALU_CASES(kAluMod)
      HYPERION_ALU_CASES(kAluXor)
      HYPERION_ALU_CASES(kAluMov)
      HYPERION_ALU_CASES(kAluArsh)
      // Byte-swap (to-BE) or truncate (to-LE) the low 16/32/64 bits,
      // zero-extended: kernel semantics on a little-endian host.
      case kEndLe16:
        reg[s.dst] &= 0xffff;
        break;
      case kEndLe32:
        reg[s.dst] &= 0xffffffffull;
        break;
      case kEndLe64:
        break;
      case kEndBe16:
        reg[s.dst] = __builtin_bswap16(static_cast<uint16_t>(reg[s.dst]));
        break;
      case kEndBe32:
        reg[s.dst] = __builtin_bswap32(static_cast<uint32_t>(reg[s.dst]));
        break;
      case kEndBe64:
        reg[s.dst] = __builtin_bswap64(reg[s.dst]);
        break;
      case kLdImm64:
        reg[s.dst] = s.imm;
        ++pc;  // the second slot holds the upper half
        break;
      HYPERION_MEM_CASES(0, uint8_t)
      HYPERION_MEM_CASES(1, uint16_t)
      HYPERION_MEM_CASES(2, uint32_t)
      HYPERION_MEM_CASES(3, uint64_t)
      case kAtomicAddW:
      case kAtomicAddDw: {
        const uint64_t addr = reg[s.dst] + static_cast<uint64_t>(int64_t{s.off});
        const uint32_t len = s.op == kAtomicAddW ? 4 : 8;
        uint8_t* p = Window<Access::kStore>(addr, len, ctx);
        if (p == nullptr) {
          return Violation(addr, Access::kLoad);  // the read half fails first
        }
        if (len == 4) {
          Store<uint32_t>(p, Load<uint32_t>(p) + reg[s.src]);
        } else {
          Store<uint64_t>(p, Load<uint64_t>(p) + reg[s.src]);
        }
        break;
      }
      case kJa:
        HYPERION_BRANCH(true)
      HYPERION_JMP_CASES(kJmpJeq)
      HYPERION_JMP_CASES(kJmpJgt)
      HYPERION_JMP_CASES(kJmpJge)
      HYPERION_JMP_CASES(kJmpJset)
      HYPERION_JMP_CASES(kJmpJne)
      HYPERION_JMP_CASES(kJmpJsgt)
      HYPERION_JMP_CASES(kJmpJsge)
      HYPERION_JMP_CASES(kJmpJlt)
      HYPERION_JMP_CASES(kJmpJle)
      HYPERION_JMP_CASES(kJmpJslt)
      HYPERION_JMP_CASES(kJmpJsle)
      case kCall: {
        ASSIGN_OR_RETURN(reg[0], CallHelper(static_cast<HelperId>(s.imm), reg[1], reg[2],
                                            reg[3], ctx));
        // r1-r5 are clobbered by calls per the ABI.
        reg[1] = reg[2] = reg[3] = reg[4] = reg[5] = 0;
        break;
      }
      case kExit:
        return ExecResult{reg[0], executed};
      default:  // kTrap
        return PermissionDenied(kTrapMessages[s.imm]);
    }
  }
}

#undef HYPERION_MEM_CASES
#undef HYPERION_STORE
#undef HYPERION_JMP_CASES
#undef HYPERION_BRANCH
#undef HYPERION_ALU_CASES

}  // namespace hyperion::ebpf
