#include "src/ebpf/vm.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

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
  kCall,           // map_update, map_delete, ktime_get_ns, get_prandom_u32
  kCallMapLookup,  // probed inline
  kExit,
  kTrap,
  kOffEnd,   // the slot at size(): the pc ran off the end
  kJumpOut,  // the slot after it: a jump left the program
  kLookupBranch,  // a fused map lookup and null check (see Fuse below)
  kHandlerCount,
};

// Trap messages, indexed by a trap slot's imm.
enum Trap : uint8_t {
  kBadEndianWidth,
  kUnknownAluOp,
  kMalformedLd,
  kUnsupportedAtomic,
  kUnknownJumpOp,
  kBadRegister,
  kUnknownHelper,
};
constexpr const char* kTrapMessages[] = {
    "bad endian width",
    "unknown ALU op",
    "malformed LD instruction",
    "unsupported atomic operation",
    "unknown jump op",
    "bad register number",
    "unknown helper id",
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
        switch (static_cast<HelperId>(insn.imm)) {
          case HelperId::kMapLookup:
            slot.op = kCallMapLookup;
            break;
          case HelperId::kMapUpdate:
          case HelperId::kMapDelete:
          case HelperId::kKtimeGetNs:
          case HelperId::kGetPrandomU32:
            slot.op = kCall;
            break;
          default:
            return trap(kUnknownHelper);
        }
      } else if (op > kJmpJsle) {
        return trap(kUnknownJumpOp);
      } else {
        slot.op = op == kJmpJa ? uint8_t{kJa}
                               : Variant(kJmpHandlers, op, cls == kClassJmp, insn.IsSrcReg());
        // A target outside [0, size] lands on the jump-out slot.
        const int64_t target = static_cast<int64_t>(pc) + 1 + insn.off;
        slot.off = static_cast<int32_t>(target < 0 || static_cast<size_t>(target) > insns.size()
                                            ? insns.size() + 1
                                            : static_cast<size_t>(target));
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

// Gives the first slot of the idiom every XDP stage looks a map up with,
//
//   ld_map_fd r1, M; mov r2, r10; add r2, K; call map_lookup; jeq r0, 0, L
//
// a handler that runs the whole idiom. It charges each instruction in turn
// against the budget and the profile, exactly as the separate handlers
// would, and fails where they would. The later slots keep their own
// handlers, so a jump into the middle of the idiom runs from there as
// before.
void Fuse(std::vector<Executable::Slot>& slots, size_t size) {
  const auto is = [&](size_t pc, uint8_t op, uint8_t dst) {
    return slots[pc].op == op && slots[pc].dst == dst;
  };
  constexpr uint8_t kMovReg64 = Variant(kAluHandlers, kAluMov, true, true);
  constexpr uint8_t kAddImm64 = Variant(kAluHandlers, kAluAdd, true, false);
  constexpr uint8_t kJeqImm64 = Variant(kJmpHandlers, kJmpJeq, true, false);
  for (size_t pc = 0; pc + 5 < size; ++pc) {
    if (is(pc, kLdImm64, 1) && is(pc + 2, kMovReg64, 2) && slots[pc + 2].src == 10 &&
        is(pc + 3, kAddImm64, 2) && slots[pc + 4].op == kCallMapLookup &&
        is(pc + 5, kJeqImm64, 0) && slots[pc + 5].imm == 0) {
      slots[pc].op = kLookupBranch;
    }
  }
}

}  // namespace

Executable::Executable() : slots_{Slot{.op = kOffEnd}, Slot{.op = kJumpOut}} {}

Executable Decode(const Program& prog) {
  Executable exe;
  exe.slots_.insert(exe.slots_.begin(), prog.insns.size(), Executable::Slot{});
  for (size_t pc = 0; pc < prog.insns.size(); ++pc) {
    exe.slots_[pc] = DecodeSlot(prog.insns, pc);
  }
  Fuse(exe.slots_, prog.insns.size());
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
      Map* map = maps_->Get(static_cast<uint32_t>(payload >> 40));
      return map == nullptr ? nullptr
                            : map->ValueWindow(static_cast<uint32_t>((payload >> 16) & 0xffffff),
                                               payload & 0xffff, len);
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

bool Vm::CallHelper(HelperId helper, const uint64_t* reg, MutableByteSpan ctx, uint64_t* r0) {
  // Map helpers: r1 is the map, r2 the key and (update) r3 the value.
  // Update and delete copy the key first, since Map::Put may move the values
  // a key or value pointer aliases. The flags in r4 are not read:
  // only BPF_ANY semantics are modelled.
  const auto map_arg = [&](const char* no_map, const char* unknown) -> Map* {
    if (TagOf(reg[1]) != kTagMapRef) {
      Fail(PermissionDenied(no_map));
      return nullptr;
    }
    Map* map = maps_->Get(static_cast<uint32_t>(PayloadOf(reg[1])));
    if (map == nullptr) {
      Fail(PermissionDenied(unknown));
    }
    return map;
  };
  const auto copy_in = [&](uint64_t addr, uint32_t len, Bytes& out) {
    const uint8_t* p = Window<Access::kLoad>(addr, len, ctx);
    if (p == nullptr) {
      Fail(Violation(addr, Access::kLoad));
      return false;
    }
    out.assign(p, p + len);
    return true;
  };
  switch (helper) {
    case HelperId::kMapUpdate: {
      Map* map = map_arg("map_update: r1 is not a map", "map_update: unknown map");
      if (map == nullptr || !copy_in(reg[2], map->spec().key_size, key_) ||
          !copy_in(reg[3], map->spec().value_size, value_)) {
        return false;
      }
      *r0 = map->Put(key_.data(), value_.data()) != Map::kNoHandle ? uint64_t{0}
                                                                     : static_cast<uint64_t>(-1);
      return true;
    }
    case HelperId::kMapDelete: {
      Map* map = map_arg("map_delete: r1 is not a map", "map_delete: unknown map");
      if (map == nullptr || !copy_in(reg[2], map->spec().key_size, key_)) {
        return false;
      }
      *r0 = map->Delete(key_).ok() ? uint64_t{0} : static_cast<uint64_t>(-1);
      return true;
    }
    case HelperId::kKtimeGetNs:
      *r0 = engine_ != nullptr ? engine_->Now() : uint64_t{0};
      return true;
    default:  // kGetPrandomU32: Decode traps every other id
      *r0 = rng_.Next() & 0xffffffffull;
      return true;
  }
}

void Vm::Fail(Status status) { fault_ = std::move(status); }

// map_lookup: `map_ref` names the map and `key_addr` the key, hashed
// where it lies; r0 gets a pointer to the value or NULL, which the
// program must branch on.
bool Vm::Lookup(uint64_t map_ref, uint64_t key_addr, MutableByteSpan ctx, uint64_t* r0) {
  if (TagOf(map_ref) != kTagMapRef) {
    Fail(PermissionDenied("map_lookup: r1 is not a map"));
    return false;
  }
  const auto map_id = static_cast<uint32_t>(PayloadOf(map_ref));
  const Map* map = maps_->Get(map_id);
  if (map == nullptr) {
    Fail(PermissionDenied("map_lookup: unknown map"));
    return false;
  }
  const uint8_t* key = Window<Access::kLoad>(key_addr, map->spec().key_size, ctx);
  if (key == nullptr) {
    Fail(Violation(key_addr, Access::kLoad));
    return false;
  }
  const uint32_t handle = map->Probe(key);
  *r0 = handle == Map::kNoHandle ? 0 : MakeTagged(kTagMapValue, PackMapValue(map_id, handle, 0));
  return true;
}

// Direct-threaded dispatch (GCC labels as values): every handler ends by
// jumping straight to the next slot's handler through kHandlers, so each
// has its own indirect branch to predict. A handler first charges its
// instruction against the budget and, in the profiled instantiation, the
// per-pc counts. The two trailing slots fail without a charge, so no
// handler tests the pc. Handlers keep their locals in a block, so no jump
// enters a variable's scope.
#define HYPERION_NEXT() goto* kHandlers[s->op]

#define HYPERION_CHARGE()                                   \
  if (left == 0) {                                          \
    Fail(DeadlineExceeded("instruction budget exhausted")); \
    return kFaulted;                                        \
  }                                                         \
  --left;                                                   \
  if constexpr (kProfile) {                                 \
    const auto pc = static_cast<size_t>(s - slots);         \
    if (pc < counted) {                                     \
      ++counts[pc];                                         \
    }                                                       \
  }

#define HYPERION_STEP(label, ...) \
  label : {                       \
    HYPERION_CHARGE()             \
    __VA_ARGS__;                  \
  }                               \
  ++s;                            \
  HYPERION_NEXT();

#define HYPERION_ALU_LABELS(name) \
  &&alu_##name##_64k, &&alu_##name##_64x, &&alu_##name##_32k, &&alu_##name##_32x
#define HYPERION_ALU_HANDLERS(name, OP)                                                  \
  HYPERION_STEP(alu_##name##_64k, reg[s->dst] = Alu<OP, true>(reg[s->dst], s->imm))      \
  HYPERION_STEP(alu_##name##_64x, reg[s->dst] = Alu<OP, true>(reg[s->dst], reg[s->src])) \
  HYPERION_STEP(alu_##name##_32k, reg[s->dst] = Alu<OP, false>(reg[s->dst], s->imm))     \
  HYPERION_STEP(alu_##name##_32x, reg[s->dst] = Alu<OP, false>(reg[s->dst], reg[s->src]))

// A taken branch goes to its target's slot, the jump-out slot when the
// target leaves the program.
#define HYPERION_BRANCH(label, taken)     \
  label : {                               \
    HYPERION_CHARGE()                     \
    s = (taken) ? slots + s->off : s + 1; \
  }                                       \
  HYPERION_NEXT();

#define HYPERION_JMP_LABELS(name) \
  &&jmp_##name##_64k, &&jmp_##name##_64x, &&jmp_##name##_32k, &&jmp_##name##_32x
#define HYPERION_JMP_HANDLERS(name, OP)                                          \
  HYPERION_BRANCH(jmp_##name##_64k, (Taken<OP, true>(reg[s->dst], s->imm)))      \
  HYPERION_BRANCH(jmp_##name##_64x, (Taken<OP, true>(reg[s->dst], reg[s->src]))) \
  HYPERION_BRANCH(jmp_##name##_32k, (Taken<OP, false>(reg[s->dst], s->imm)))     \
  HYPERION_BRANCH(jmp_##name##_32x, (Taken<OP, false>(reg[s->dst], reg[s->src])))

// Four trap entries: an op block no handler serves, which Decode never
// emits.
#define HYPERION_UNUSED_LABELS &&trap, &&trap, &&trap, &&trap

// A `sizeof(TYPE)`-byte access at [reg[base] + off]; a refused window fails
// the run with the sandbox error for `reported`, else `body` uses `p`.
#define HYPERION_ACCESS(label, TYPE, base, access, reported, body)               \
  label : {                                                                      \
    HYPERION_CHARGE()                                                            \
    const uint64_t addr = reg[s->base] + static_cast<uint64_t>(int64_t{s->off}); \
    uint8_t* p = Window<access>(addr, sizeof(TYPE), ctx);                        \
    if (p == nullptr) {                                                          \
      Fail(Violation(addr, reported));                                           \
      return kFaulted;                                                           \
    }                                                                            \
    body;                                                                        \
  }                                                                              \
  ++s;                                                                           \
  HYPERION_NEXT();

// Loads address [src + off], stores [dst + off].
#define HYPERION_LOAD(label, TYPE) \
  HYPERION_ACCESS(label, TYPE, src, Access::kLoad, Access::kLoad, reg[s->dst] = Load<TYPE>(p))
#define HYPERION_STORE(label, TYPE, VALUE) \
  HYPERION_ACCESS(label, TYPE, dst, Access::kStore, Access::kStore, Store<TYPE>(p, VALUE))
// The read half of an atomic add is the one a refused window reports.
#define HYPERION_ATOMIC_ADD(label, TYPE)                           \
  HYPERION_ACCESS(label, TYPE, dst, Access::kStore, Access::kLoad, \
                  Store<TYPE>(p, Load<TYPE>(p) + reg[s->src]))

template <bool kProfile>
ChainExit Vm::Exec(std::span<const Executable> stages, MutableByteSpan ctx, uint64_t insn_budget,
                   uint64_t pass, uint64_t* insns) {
  // Indexed by handler id.
  static const void* const kHandlers[] = {
      HYPERION_ALU_LABELS(add),  HYPERION_ALU_LABELS(sub),  HYPERION_ALU_LABELS(mul),
      HYPERION_ALU_LABELS(div),  HYPERION_ALU_LABELS(bor),  HYPERION_ALU_LABELS(band),
      HYPERION_ALU_LABELS(lsh),  HYPERION_ALU_LABELS(rsh),  HYPERION_ALU_LABELS(neg),
      HYPERION_ALU_LABELS(mod),  HYPERION_ALU_LABELS(bxor), HYPERION_ALU_LABELS(mov),
      HYPERION_ALU_LABELS(arsh), HYPERION_UNUSED_LABELS,    HYPERION_UNUSED_LABELS,
      HYPERION_UNUSED_LABELS,
      HYPERION_UNUSED_LABELS,  // ja
      HYPERION_JMP_LABELS(jeq),  HYPERION_JMP_LABELS(jgt),  HYPERION_JMP_LABELS(jge),
      HYPERION_JMP_LABELS(jset), HYPERION_JMP_LABELS(jne),  HYPERION_JMP_LABELS(jsgt),
      HYPERION_JMP_LABELS(jsge),
      HYPERION_UNUSED_LABELS,  // call
      HYPERION_UNUSED_LABELS,  // exit
      HYPERION_JMP_LABELS(jlt),  HYPERION_JMP_LABELS(jle),  HYPERION_JMP_LABELS(jslt),
      HYPERION_JMP_LABELS(jsle), HYPERION_UNUSED_LABELS,    HYPERION_UNUSED_LABELS,
      &&end_le16, &&end_le32, &&end_le64, &&end_be16, &&end_be32, &&end_be64,
      &&ld_imm64,
      &&ldx_b, &&ldx_h, &&ldx_w, &&ldx_dw,
      &&st_b, &&st_h, &&st_w, &&st_dw,
      &&stx_b, &&stx_h, &&stx_w, &&stx_dw,
      &&atomic_add_w, &&atomic_add_dw,
      &&ja, &&call, &&call_map_lookup, &&exit, &&trap, &&off_end, &&jump_out,
      &&lookup_branch,
  };
  static_assert(std::size(kHandlers) == kHandlerCount);

  size_t stage = 0;
  uint64_t reg[kNumRegisters];
  const Executable::Slot* slots;
  const Executable::Slot* s;
  uint64_t left;
  uint64_t* const counts = kProfile ? exec_counts_->data() : nullptr;
  size_t counted = 0;

next_stage:
  // Stack stores are the only writers of stack_, so zeroing from the lowest
  // byte the last run stored to gives every run empty working memory. A
  // run dirties a few words, too few to pay a string store's start-up, so
  // the loop stores words.
  for (uint32_t at = stack_low_ & ~7u; at < kStackSize; at += 8) {
    Store<uint64_t>(stack_ + at, 0);
  }
  stack_low_ = kStackSize;
  std::fill(std::begin(reg), std::end(reg), 0);
  reg[1] = MakeTagged(kTagCtx, 0);
  reg[2] = ctx.size();
  reg[10] = MakeTagged(kTagStack, kStackSize);
  slots = stages[stage].slots_.data();
  if constexpr (kProfile) {
    counted = std::min(stages[stage].size(), exec_counts_->size());
  }
  left = insn_budget;
  s = slots;
  HYPERION_NEXT();

  HYPERION_ALU_HANDLERS(add, kAluAdd)
  HYPERION_ALU_HANDLERS(sub, kAluSub)
  HYPERION_ALU_HANDLERS(mul, kAluMul)
  HYPERION_ALU_HANDLERS(div, kAluDiv)
  HYPERION_ALU_HANDLERS(bor, kAluOr)
  HYPERION_ALU_HANDLERS(band, kAluAnd)
  HYPERION_ALU_HANDLERS(lsh, kAluLsh)
  HYPERION_ALU_HANDLERS(rsh, kAluRsh)
  HYPERION_ALU_HANDLERS(neg, kAluNeg)
  HYPERION_ALU_HANDLERS(mod, kAluMod)
  HYPERION_ALU_HANDLERS(bxor, kAluXor)
  HYPERION_ALU_HANDLERS(mov, kAluMov)
  HYPERION_ALU_HANDLERS(arsh, kAluArsh)
  // Byte-swap (to-BE) or truncate (to-LE) the low 16/32/64 bits,
  // zero-extended: kernel semantics on a little-endian host.
  HYPERION_STEP(end_le16, reg[s->dst] &= 0xffff)
  HYPERION_STEP(end_le32, reg[s->dst] &= 0xffffffffull)
  HYPERION_STEP(end_le64, )
  HYPERION_STEP(end_be16, reg[s->dst] = __builtin_bswap16(static_cast<uint16_t>(reg[s->dst])))
  HYPERION_STEP(end_be32, reg[s->dst] = __builtin_bswap32(static_cast<uint32_t>(reg[s->dst])))
  HYPERION_STEP(end_be64, reg[s->dst] = __builtin_bswap64(reg[s->dst]))
  // The second slot holds the upper half: step over it.
  HYPERION_STEP(ld_imm64, reg[s->dst] = s->imm; ++s)
  HYPERION_LOAD(ldx_b, uint8_t)
  HYPERION_LOAD(ldx_h, uint16_t)
  HYPERION_LOAD(ldx_w, uint32_t)
  HYPERION_LOAD(ldx_dw, uint64_t)
  HYPERION_STORE(st_b, uint8_t, s->imm)
  HYPERION_STORE(st_h, uint16_t, s->imm)
  HYPERION_STORE(st_w, uint32_t, s->imm)
  HYPERION_STORE(st_dw, uint64_t, s->imm)
  HYPERION_STORE(stx_b, uint8_t, reg[s->src])
  HYPERION_STORE(stx_h, uint16_t, reg[s->src])
  HYPERION_STORE(stx_w, uint32_t, reg[s->src])
  HYPERION_STORE(stx_dw, uint64_t, reg[s->src])
  HYPERION_ATOMIC_ADD(atomic_add_w, uint32_t)
  HYPERION_ATOMIC_ADD(atomic_add_dw, uint64_t)
  HYPERION_BRANCH(ja, true)
  HYPERION_JMP_HANDLERS(jeq, kJmpJeq)
  HYPERION_JMP_HANDLERS(jgt, kJmpJgt)
  HYPERION_JMP_HANDLERS(jge, kJmpJge)
  HYPERION_JMP_HANDLERS(jset, kJmpJset)
  HYPERION_JMP_HANDLERS(jne, kJmpJne)
  HYPERION_JMP_HANDLERS(jsgt, kJmpJsgt)
  HYPERION_JMP_HANDLERS(jsge, kJmpJsge)
  HYPERION_JMP_HANDLERS(jlt, kJmpJlt)
  HYPERION_JMP_HANDLERS(jle, kJmpJle)
  HYPERION_JMP_HANDLERS(jslt, kJmpJslt)
  HYPERION_JMP_HANDLERS(jsle, kJmpJsle)

call : {
  HYPERION_CHARGE()
  if (!CallHelper(static_cast<HelperId>(s->imm), reg, ctx, &reg[0])) {
    return kFaulted;
  }
  // r1-r5 are clobbered by calls per the ABI.
  reg[1] = reg[2] = reg[3] = reg[4] = reg[5] = 0;
}
  ++s;
  HYPERION_NEXT();

call_map_lookup : {
  HYPERION_CHARGE()
  if (!Lookup(reg[1], reg[2], ctx, &reg[0])) {
    return kFaulted;
  }
  reg[1] = reg[2] = reg[3] = reg[4] = reg[5] = 0;
}
  ++s;
  HYPERION_NEXT();

// The program's exit; in a chain, a pass verdict starts the next stage.
exit : {
  HYPERION_CHARGE()
  if (insns != nullptr) {
    insns[stage] = insn_budget - left;
  }
  if (reg[0] == pass && stage + 1 < stages.size()) {
    ++stage;
    goto next_stage;
  }
  return ChainExit{stage, reg[0]};
}
trap : {
  HYPERION_CHARGE()
  Fail(PermissionDenied(kTrapMessages[s->imm]));
  return kFaulted;
}
off_end:
  Fail(PermissionDenied("program counter ran off the end"));
  return kFaulted;
jump_out:
  Fail(PermissionDenied("jump out of program"));
  return kFaulted;

// ld_map_fd r1, M; mov r2, r10; add r2, K; call map_lookup; jeq r0, 0, L.
// r1 and r2 need no stores: the call clobbers them.
lookup_branch : {
  HYPERION_CHARGE()
  const uint64_t map_ref = s->imm;
  s += 2;  // over the LD_IMM64's second slot
  HYPERION_CHARGE()
  ++s;
  HYPERION_CHARGE()
  const uint64_t key_addr = reg[10] + s->imm;
  ++s;
  HYPERION_CHARGE()
  if (!Lookup(map_ref, key_addr, ctx, &reg[0])) {
    return kFaulted;
  }
  reg[1] = reg[2] = reg[3] = reg[4] = reg[5] = 0;
  ++s;
  HYPERION_CHARGE()
  s = reg[0] == 0 ? slots + s->off : s + 1;
}
  HYPERION_NEXT();
}

#undef HYPERION_ATOMIC_ADD
#undef HYPERION_STORE
#undef HYPERION_LOAD
#undef HYPERION_ACCESS
#undef HYPERION_UNUSED_LABELS
#undef HYPERION_JMP_HANDLERS
#undef HYPERION_JMP_LABELS
#undef HYPERION_BRANCH
#undef HYPERION_ALU_HANDLERS
#undef HYPERION_ALU_LABELS
#undef HYPERION_STEP
#undef HYPERION_CHARGE
#undef HYPERION_NEXT

Result<ExecResult> Vm::Run(const Executable& exe, MutableByteSpan ctx, uint64_t insn_budget) {
  uint64_t executed = 0;
  const ChainExit exit = Exec({&exe, 1}, ctx, insn_budget, /*pass=*/0, &executed);
  if (exit.stage == kFaulted.stage) {
    return std::move(fault_);
  }
  return ExecResult{exit.verdict, executed};
}

Result<ChainExit> Vm::RunChain(std::span<const Executable> stages, MutableByteSpan ctx,
                               uint64_t pass, std::span<uint64_t> insns) {
  CHECK(!stages.empty());
  CHECK(insns.empty() || insns.size() >= stages.size());
  const ChainExit exit =
      Exec(stages, ctx, kDefaultInsnBudget, pass, insns.empty() ? nullptr : insns.data());
  if (exit.stage == kFaulted.stage) {
    return std::move(fault_);
  }
  return exit;
}

}  // namespace hyperion::ebpf
