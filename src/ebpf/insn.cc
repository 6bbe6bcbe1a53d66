#include "src/ebpf/insn.h"

#include <sstream>

namespace hyperion::ebpf {

Insn LoadMem(uint8_t size, uint8_t dst, uint8_t src, int16_t off) {
  return Insn{static_cast<uint8_t>(kClassLdx | size | kModeMem), dst, src, off, 0};
}

Insn StoreReg(uint8_t size, uint8_t dst, int16_t off, uint8_t src) {
  return Insn{static_cast<uint8_t>(kClassStx | size | kModeMem), dst, src, off, 0};
}

Insn StoreImm(uint8_t size, uint8_t dst, int16_t off, int32_t imm) {
  return Insn{static_cast<uint8_t>(kClassSt | size | kModeMem), dst, 0, off, imm};
}

Insn JumpAlways(int16_t off) {
  return Insn{static_cast<uint8_t>(kClassJmp | kJmpJa), 0, 0, off, 0};
}

Insn Call(HelperId helper) {
  return Insn{static_cast<uint8_t>(kClassJmp | kJmpCall), 0, 0, 0,
              static_cast<int32_t>(helper)};
}

Insn Exit() { return Insn{static_cast<uint8_t>(kClassJmp | kJmpExit), 0, 0, 0, 0}; }

void LoadImm64(std::vector<Insn>& out, uint8_t dst, uint64_t imm) {
  out.push_back(Insn{static_cast<uint8_t>(kClassLd | kSizeDw | kModeImm), dst, 0, 0,
                     static_cast<int32_t>(imm & 0xffffffffu)});
  out.push_back(Insn{0, 0, 0, 0, static_cast<int32_t>(imm >> 32)});
}

Insn AtomicAdd(uint8_t size, uint8_t dst, int16_t off, uint8_t src) {
  return Insn{static_cast<uint8_t>(kClassStx | size | kModeAtomic), dst, src, off, kAtomicAdd};
}

Insn EndianSwap(uint8_t dst, bool to_be, int32_t bits) {
  return Insn{static_cast<uint8_t>(kClassAlu | kAluEnd | (to_be ? kSrcX : kSrcK)), dst, 0, 0,
              bits};
}

void LoadMapFd(std::vector<Insn>& out, uint8_t dst, uint32_t map_id) {
  out.push_back(Insn{static_cast<uint8_t>(kClassLd | kSizeDw | kModeImm), dst, kPseudoMapFd, 0,
                     static_cast<int32_t>(map_id)});
  out.push_back(Insn{0, 0, 0, 0, 0});
}

namespace {

const char* AluOpName(uint8_t op) {
  switch (op) {
    case kAluAdd:
      return "add";
    case kAluSub:
      return "sub";
    case kAluMul:
      return "mul";
    case kAluDiv:
      return "div";
    case kAluOr:
      return "or";
    case kAluAnd:
      return "and";
    case kAluLsh:
      return "lsh";
    case kAluRsh:
      return "rsh";
    case kAluNeg:
      return "neg";
    case kAluMod:
      return "mod";
    case kAluXor:
      return "xor";
    case kAluMov:
      return "mov";
    case kAluArsh:
      return "arsh";
    default:
      return "alu?";
  }
}

const char* JmpOpName(uint8_t op) {
  switch (op) {
    case kJmpJa:
      return "ja";
    case kJmpJeq:
      return "jeq";
    case kJmpJgt:
      return "jgt";
    case kJmpJge:
      return "jge";
    case kJmpJset:
      return "jset";
    case kJmpJne:
      return "jne";
    case kJmpJsgt:
      return "jsgt";
    case kJmpJsge:
      return "jsge";
    case kJmpJlt:
      return "jlt";
    case kJmpJle:
      return "jle";
    case kJmpJslt:
      return "jslt";
    case kJmpJsle:
      return "jsle";
    default:
      return "jmp?";
  }
}

const char* SizeSuffix(uint8_t size) {
  switch (size) {
    case kSizeB:
      return "b";
    case kSizeH:
      return "h";
    case kSizeW:
      return "w";
    case kSizeDw:
      return "dw";
    default:
      return "?";
  }
}

}  // namespace

bool UsesBadRegister(const Insn& insn) {
  const auto bad = [](uint8_t reg) { return reg >= kNumRegisters; };
  switch (insn.Class()) {
    case kClassAlu:
    case kClassAlu64:
      // An endian op's source bit picks the byte order, not a register.
      return bad(insn.dst) || (insn.IsSrcReg() && insn.AluOp() != kAluEnd && bad(insn.src));
    case kClassLd:  // LD_IMM64's src field marks a map reference
    case kClassSt:
      return bad(insn.dst);
    case kClassLdx:
    case kClassStx:
      return bad(insn.dst) || bad(insn.src);
    default:  // kClassJmp, kClassJmp32
      switch (insn.AluOp()) {
        case kJmpJa:
        case kJmpCall:
        case kJmpExit:
          return false;
        default:
          return bad(insn.dst) || (insn.IsSrcReg() && bad(insn.src));
      }
  }
}

std::string Disassemble(const Insn& insn) {
  std::ostringstream os;
  const uint8_t cls = insn.Class();
  switch (cls) {
    case kClassAlu64:
    case kClassAlu: {
      if (insn.AluOp() == kAluEnd) {
        os << (insn.IsSrcReg() ? "be" : "le") << insn.imm << " r" << static_cast<int>(insn.dst);
        break;
      }
      os << AluOpName(insn.AluOp()) << (cls == kClassAlu ? "32" : "") << " r"
         << static_cast<int>(insn.dst);
      if (insn.AluOp() != kAluNeg) {
        if (insn.IsSrcReg()) {
          os << ", r" << static_cast<int>(insn.src);
        } else {
          os << ", " << insn.imm;
        }
      }
      break;
    }
    case kClassLdx:
      os << "ldx" << SizeSuffix(insn.Size()) << " r" << static_cast<int>(insn.dst) << ", [r"
         << static_cast<int>(insn.src) << (insn.off >= 0 ? "+" : "") << insn.off << "]";
      break;
    case kClassStx:
      if (insn.Mode() == kModeAtomic) {
        os << "xadd" << SizeSuffix(insn.Size()) << " [r" << static_cast<int>(insn.dst)
           << (insn.off >= 0 ? "+" : "") << insn.off << "], r" << static_cast<int>(insn.src);
      } else {
        os << "stx" << SizeSuffix(insn.Size()) << " [r" << static_cast<int>(insn.dst)
           << (insn.off >= 0 ? "+" : "") << insn.off << "], r" << static_cast<int>(insn.src);
      }
      break;
    case kClassSt:
      os << "st" << SizeSuffix(insn.Size()) << " [r" << static_cast<int>(insn.dst)
         << (insn.off >= 0 ? "+" : "") << insn.off << "], " << insn.imm;
      break;
    case kClassLd:
      if (insn.IsLdImm64()) {
        if (insn.src == kPseudoMapFd) {
          os << "ld_map_fd r" << static_cast<int>(insn.dst) << ", map" << insn.imm;
        } else {
          os << "ld_imm64 r" << static_cast<int>(insn.dst) << ", lo32=" << insn.imm;
        }
      } else {
        os << "ld?";
      }
      break;
    case kClassJmp:
    case kClassJmp32: {
      const uint8_t op = insn.AluOp();
      if (op == kJmpExit) {
        os << "exit";
      } else if (op == kJmpCall) {
        os << "call " << insn.imm;
      } else if (op == kJmpJa) {
        os << "ja " << (insn.off >= 0 ? "+" : "") << insn.off;
      } else {
        os << JmpOpName(op) << " r" << static_cast<int>(insn.dst) << ", ";
        if (insn.IsSrcReg()) {
          os << "r" << static_cast<int>(insn.src);
        } else {
          os << insn.imm;
        }
        os << ", " << (insn.off >= 0 ? "+" : "") << insn.off;
      }
      break;
    }
    default:
      os << "unknown(0x" << std::hex << static_cast<int>(insn.opcode) << ")";
  }
  return os.str();
}

Bytes SerializeProgram(const Program& prog) {
  Bytes out;
  PutString(out, prog.name);
  PutU32(out, prog.ctx_size);
  PutU32(out, static_cast<uint32_t>(prog.insns.size()));
  for (const Insn& insn : prog.insns) {
    out.push_back(insn.opcode);
    out.push_back(static_cast<uint8_t>((insn.src << 4) | insn.dst));
    PutU16(out, static_cast<uint16_t>(insn.off));
    PutU32(out, static_cast<uint32_t>(insn.imm));
  }
  return out;
}

Result<Program> ParseProgram(ByteSpan data) {
  ByteReader reader(data);
  Program prog;
  prog.name = reader.ReadString();
  prog.ctx_size = reader.ReadU32();
  const uint32_t count = reader.ReadU32();
  if (count > 65536) {
    return DataLoss("implausible instruction count");
  }
  prog.insns.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Insn insn;
    insn.opcode = reader.ReadU8();
    const uint8_t regs = reader.ReadU8();
    insn.dst = regs & 0x0f;
    insn.src = regs >> 4;
    insn.off = static_cast<int16_t>(reader.ReadU16());
    insn.imm = static_cast<int32_t>(reader.ReadU32());
    prog.insns.push_back(insn);
  }
  if (!reader.Ok()) {
    return DataLoss("truncated program");
  }
  return prog;
}

}  // namespace hyperion::ebpf
