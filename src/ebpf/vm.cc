#include "src/ebpf/vm.h"

#include <cstring>

#include "src/common/check.h"

namespace hyperion::ebpf {

namespace {

uint32_t SizeBytes(uint8_t size_field) {
  switch (size_field) {
    case kSizeB:
      return 1;
    case kSizeH:
      return 2;
    case kSizeW:
      return 4;
    case kSizeDw:
      return 8;
  }
  return 0;
}

uint64_t ReadLe(const uint8_t* p, uint32_t size) {
  uint64_t v = 0;
  for (uint32_t i = 0; i < size; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

void WriteLe(uint8_t* p, uint32_t size, uint64_t v) {
  for (uint32_t i = 0; i < size; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

Result<uint8_t*> Vm::Resolve(uint64_t addr, uint64_t len, MutableByteSpan ctx,
                             Access access) {
  const bool load = access == Access::kLoad;
  const uint64_t payload = PayloadOf(addr);
  switch (TagOf(addr)) {
    case kTagStack:
      if (payload > kStackSize || len > kStackSize - payload) {
        return PermissionDenied(load ? "stack load out of bounds" : "stack store out of bounds");
      }
      return &stack_[payload];
    case kTagCtx:
      if (payload > ctx.size() || len > ctx.size() - payload) {
        return PermissionDenied(load ? "ctx load out of bounds" : "ctx store out of bounds");
      }
      return ctx.data() + payload;
    case kTagMapValue: {
      const auto map_id = static_cast<uint32_t>(payload >> 40);
      const auto handle = static_cast<uint32_t>((payload >> 16) & 0xffffff);
      const auto offset = static_cast<uint32_t>(payload & 0xffff);
      Map* map = maps_->Get(map_id);
      if (map == nullptr) {
        return PermissionDenied(load ? "load through bad map pointer"
                                     : "store through bad map pointer");
      }
      const uint32_t value_size = map->spec().value_size;
      if (offset > value_size || len > value_size - offset) {
        return PermissionDenied(load ? "map value load out of bounds"
                                     : "map value store out of bounds");
      }
      return map->MutableValue(handle).data() + offset;
    }
    default:
      return PermissionDenied(load ? "load through non-pointer value"
                                   : "store through non-pointer value");
  }
}

Result<uint64_t> Vm::LoadFrom(uint64_t addr, uint32_t size, MutableByteSpan ctx) {
  ASSIGN_OR_RETURN(const uint8_t* p, Resolve(addr, size, ctx, Access::kLoad));
  return ReadLe(p, size);
}

Status Vm::StoreTo(uint64_t addr, uint32_t size, uint64_t value, MutableByteSpan ctx) {
  ASSIGN_OR_RETURN(uint8_t* p, Resolve(addr, size, ctx, Access::kStore));
  WriteLe(p, size, value);
  return Status::Ok();
}

Status Vm::CopyIn(uint64_t addr, uint32_t len, MutableByteSpan ctx, Bytes& out) {
  ASSIGN_OR_RETURN(const uint8_t* p, Resolve(addr, len, ctx, Access::kLoad));
  out.assign(p, p + len);
  return Status::Ok();
}

Result<uint64_t> Vm::CallHelper(HelperId helper, uint64_t r1, uint64_t r2, uint64_t r3,
                                uint64_t r4, MutableByteSpan ctx) {
  switch (helper) {
    case HelperId::kMapLookup: {
      if (TagOf(r1) != kTagMapRef) {
        return PermissionDenied("map_lookup: r1 is not a map");
      }
      const auto map_id = static_cast<uint32_t>(PayloadOf(r1));
      Map* map = maps_->Get(map_id);
      if (map == nullptr) {
        return PermissionDenied("map_lookup: unknown map");
      }
      RETURN_IF_ERROR(CopyIn(r2, map->spec().key_size, ctx, key_));
      Result<uint32_t> handle = map->LookupHandle(key_);
      if (!handle.ok()) {
        return uint64_t{0};  // NULL: program must branch on it
      }
      return MakeTagged(kTagMapValue, PackMapValue(map_id, *handle, 0));
    }
    case HelperId::kMapUpdate: {
      if (TagOf(r1) != kTagMapRef) {
        return PermissionDenied("map_update: r1 is not a map");
      }
      const auto map_id = static_cast<uint32_t>(PayloadOf(r1));
      Map* map = maps_->Get(map_id);
      if (map == nullptr) {
        return PermissionDenied("map_update: unknown map");
      }
      RETURN_IF_ERROR(CopyIn(r2, map->spec().key_size, ctx, key_));
      RETURN_IF_ERROR(CopyIn(r3, map->spec().value_size, ctx, value_));
      (void)r4;  // flags: only BPF_ANY semantics modelled
      Result<uint32_t> slot = map->Update(key_, value_);
      if (!slot.ok()) {
        return static_cast<uint64_t>(-1);
      }
      return uint64_t{0};
    }
    case HelperId::kMapDelete: {
      if (TagOf(r1) != kTagMapRef) {
        return PermissionDenied("map_delete: r1 is not a map");
      }
      const auto map_id = static_cast<uint32_t>(PayloadOf(r1));
      Map* map = maps_->Get(map_id);
      if (map == nullptr) {
        return PermissionDenied("map_delete: unknown map");
      }
      RETURN_IF_ERROR(CopyIn(r2, map->spec().key_size, ctx, key_));
      Status st = map->Delete(key_);
      return st.ok() ? uint64_t{0} : static_cast<uint64_t>(-1);
    }
    case HelperId::kKtimeGetNs:
      return engine_ != nullptr ? engine_->Now() : uint64_t{0};
    case HelperId::kGetPrandomU32:
      return rng_.Next() & 0xffffffffull;
  }
  return PermissionDenied("unknown helper id");
}

Result<ExecResult> Vm::Run(const Program& prog, MutableByteSpan ctx, uint64_t insn_budget) {
  uint64_t reg[kNumRegisters] = {};
  std::memset(stack_, 0, sizeof(stack_));
  reg[1] = MakeTagged(kTagCtx, 0);
  reg[2] = ctx.size();
  reg[10] = MakeTagged(kTagStack, kStackSize);

  const auto& insns = prog.insns;
  ExecResult result;
  size_t pc = 0;
  while (true) {
    if (pc >= insns.size()) {
      return PermissionDenied("program counter ran off the end");
    }
    if (result.insns_executed >= insn_budget) {
      return DeadlineExceeded("instruction budget exhausted");
    }
    ++result.insns_executed;
    if (exec_counts_ != nullptr && pc < exec_counts_->size()) {
      ++(*exec_counts_)[pc];
    }
    const Insn& insn = insns[pc];
    const uint8_t cls = insn.Class();
    switch (cls) {
      case kClassAlu64:
      case kClassAlu: {
        const bool is64 = cls == kClassAlu64;
        if (insn.AluOp() == kAluEnd) {
          // Byte-swap (to-BE when src bit set) / truncate (to-LE) over the
          // low imm bits, zero-extended — kernel semantics on an LE host.
          uint64_t v = reg[insn.dst];
          const int bits = insn.imm;
          if (bits != 16 && bits != 32 && bits != 64) {
            return PermissionDenied("bad endian width");
          }
          if (insn.IsSrcReg()) {  // to big-endian: swap
            uint64_t swapped = 0;
            for (int b = 0; b < bits / 8; ++b) {
              swapped = (swapped << 8) | ((v >> (8 * b)) & 0xff);
            }
            v = swapped;
          }
          if (bits < 64) {
            v &= (1ull << bits) - 1;
          }
          reg[insn.dst] = v;
          ++pc;
          break;
        }
        const uint64_t src_val = insn.IsSrcReg()
                                     ? reg[insn.src]
                                     : static_cast<uint64_t>(static_cast<int64_t>(insn.imm));
        uint64_t a = reg[insn.dst];
        uint64_t b = src_val;
        if (!is64) {
          a &= 0xffffffffull;
          b &= 0xffffffffull;
        }
        uint64_t out = 0;
        switch (insn.AluOp()) {
          case kAluAdd:
            out = a + b;
            break;
          case kAluSub:
            out = a - b;
            break;
          case kAluMul:
            out = a * b;
            break;
          case kAluDiv:
            out = b == 0 ? 0 : a / b;
            break;
          case kAluMod:
            out = b == 0 ? a : a % b;
            break;
          case kAluOr:
            out = a | b;
            break;
          case kAluAnd:
            out = a & b;
            break;
          case kAluXor:
            out = a ^ b;
            break;
          case kAluLsh:
            out = a << (b & (is64 ? 63 : 31));
            break;
          case kAluRsh:
            out = a >> (b & (is64 ? 63 : 31));
            break;
          case kAluArsh:
            if (is64) {
              out = static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63));
            } else {
              out = static_cast<uint64_t>(
                  static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31)));
            }
            break;
          case kAluNeg:
            out = ~a + 1;
            break;
          case kAluMov:
            out = b;
            break;
          default:
            return PermissionDenied("unknown ALU op");
        }
        if (!is64) {
          out &= 0xffffffffull;
        }
        reg[insn.dst] = out;
        ++pc;
        break;
      }
      case kClassLd: {
        if (!insn.IsLdImm64() || pc + 1 >= insns.size()) {
          return PermissionDenied("malformed LD instruction");
        }
        const Insn& hi = insns[pc + 1];
        if (insn.src == kPseudoMapFd) {
          reg[insn.dst] =
              MakeTagged(kTagMapRef, static_cast<uint32_t>(insn.imm));
        } else {
          reg[insn.dst] = (static_cast<uint64_t>(static_cast<uint32_t>(hi.imm)) << 32) |
                          static_cast<uint32_t>(insn.imm);
        }
        pc += 2;
        break;
      }
      case kClassLdx: {
        const uint32_t size = SizeBytes(insn.Size());
        if (size == 0) {
          return PermissionDenied("bad load size");
        }
        const uint64_t addr = reg[insn.src] + static_cast<uint64_t>(
                                                  static_cast<int64_t>(insn.off));
        ASSIGN_OR_RETURN(reg[insn.dst], LoadFrom(addr, size, ctx));
        ++pc;
        break;
      }
      case kClassStx:
      case kClassSt: {
        const uint32_t size = SizeBytes(insn.Size());
        if (size == 0) {
          return PermissionDenied("bad store size");
        }
        const uint64_t addr = reg[insn.dst] + static_cast<uint64_t>(
                                                  static_cast<int64_t>(insn.off));
        if (cls == kClassStx && insn.Mode() == kModeAtomic) {
          if (insn.imm != kAtomicAdd || (size != 4 && size != 8)) {
            return PermissionDenied("unsupported atomic operation");
          }
          ASSIGN_OR_RETURN(uint64_t old, LoadFrom(addr, size, ctx));
          RETURN_IF_ERROR(StoreTo(addr, size, old + reg[insn.src], ctx));
          ++pc;
          break;
        }
        const uint64_t value = cls == kClassStx
                                   ? reg[insn.src]
                                   : static_cast<uint64_t>(static_cast<int64_t>(insn.imm));
        RETURN_IF_ERROR(StoreTo(addr, size, value, ctx));
        ++pc;
        break;
      }
      case kClassJmp:
      case kClassJmp32: {
        const uint8_t op = insn.AluOp();
        if (op == kJmpExit) {
          result.return_value = reg[0];
          return result;
        }
        if (op == kJmpCall) {
          ASSIGN_OR_RETURN(reg[0],
                           CallHelper(static_cast<HelperId>(insn.imm), reg[1], reg[2], reg[3],
                                      reg[4], ctx));
          // r1-r5 are clobbered by calls per the ABI.
          reg[1] = reg[2] = reg[3] = reg[4] = reg[5] = 0;
          ++pc;
          break;
        }
        bool taken;
        if (op == kJmpJa) {
          taken = true;
        } else {
          uint64_t a = reg[insn.dst];
          uint64_t b = insn.IsSrcReg() ? reg[insn.src]
                                       : static_cast<uint64_t>(static_cast<int64_t>(insn.imm));
          if (cls == kClassJmp32) {
            a &= 0xffffffffull;
            b &= 0xffffffffull;
          }
          const auto sa = static_cast<int64_t>(a);
          const auto sb = static_cast<int64_t>(b);
          switch (op) {
            case kJmpJeq:
              taken = a == b;
              break;
            case kJmpJne:
              taken = a != b;
              break;
            case kJmpJgt:
              taken = a > b;
              break;
            case kJmpJge:
              taken = a >= b;
              break;
            case kJmpJlt:
              taken = a < b;
              break;
            case kJmpJle:
              taken = a <= b;
              break;
            case kJmpJset:
              taken = (a & b) != 0;
              break;
            case kJmpJsgt:
              taken = sa > sb;
              break;
            case kJmpJsge:
              taken = sa >= sb;
              break;
            case kJmpJslt:
              taken = sa < sb;
              break;
            case kJmpJsle:
              taken = sa <= sb;
              break;
            default:
              return PermissionDenied("unknown jump op");
          }
        }
        if (taken) {
          const int64_t target = static_cast<int64_t>(pc) + 1 + insn.off;
          if (target < 0 || static_cast<size_t>(target) > insns.size()) {
            return PermissionDenied("jump out of program");
          }
          pc = static_cast<size_t>(target);
        } else {
          ++pc;
        }
        break;
      }
      default:
        return PermissionDenied("unknown instruction class");
    }
  }
}

}  // namespace hyperion::ebpf
