// Helpers that only tests use, shared by several test binaries:
//
//   * eBPF instruction builders for the ALU, MOV and conditional-jump
//     forms — tests build programs field by field, while the library's own
//     programs are assembled from text (ebpf/assembler.h);
//   * whole-chain copies of a BufferChain, which frame tests compare with
//     golden bytes. The datapath never flattens a chain: its parsers read
//     through a ChainReader and slice payloads.
//
// Header-only and kept apart from testutil.h, which pulls in the whole DPU,
// so the unit tests of one library can include it.

#ifndef HYPERION_TESTS_HELPERS_H_
#define HYPERION_TESTS_HELPERS_H_

#include <cstdint>
#include <cstring>

#include "src/common/buffer.h"
#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/ebpf/insn.h"

namespace hyperion {

// Copies `chain` into `out`, whose size must equal the chain's.
inline void CopyTo(const BufferChain& chain, MutableByteSpan out) {
  CHECK_EQ(out.size(), chain.size());
  size_t at = 0;
  for (size_t i = 0; i < chain.segment_count(); ++i) {
    const Buffer& segment = chain.segment(i);
    std::memcpy(out.data() + at, segment.data(), segment.size());
    at += segment.size();
  }
}

// The chain's bytes, contiguous.
inline Bytes Flatten(const BufferChain& chain) {
  Bytes out(chain.size());
  CopyTo(chain, MutableByteSpan(out));
  return out;
}

}  // namespace hyperion

namespace hyperion::ebpf {

inline Insn Mov64Imm(uint8_t dst, int32_t imm) {
  return Insn{static_cast<uint8_t>(kClassAlu64 | kAluMov | kSrcK), dst, 0, 0, imm};
}

inline Insn Mov64Reg(uint8_t dst, uint8_t src) {
  return Insn{static_cast<uint8_t>(kClassAlu64 | kAluMov | kSrcX), dst, src, 0, 0};
}

inline Insn Alu64Imm(uint8_t op, uint8_t dst, int32_t imm) {
  return Insn{static_cast<uint8_t>(kClassAlu64 | op | kSrcK), dst, 0, 0, imm};
}

inline Insn Alu64Reg(uint8_t op, uint8_t dst, uint8_t src) {
  return Insn{static_cast<uint8_t>(kClassAlu64 | op | kSrcX), dst, src, 0, 0};
}

inline Insn Alu32Imm(uint8_t op, uint8_t dst, int32_t imm) {
  return Insn{static_cast<uint8_t>(kClassAlu | op | kSrcK), dst, 0, 0, imm};
}

inline Insn Alu32Reg(uint8_t op, uint8_t dst, uint8_t src) {
  return Insn{static_cast<uint8_t>(kClassAlu | op | kSrcX), dst, src, 0, 0};
}

inline Insn JumpImm(uint8_t op, uint8_t dst, int32_t imm, int16_t off) {
  return Insn{static_cast<uint8_t>(kClassJmp | op | kSrcK), dst, 0, off, imm};
}

inline Insn JumpReg(uint8_t op, uint8_t dst, uint8_t src, int16_t off) {
  return Insn{static_cast<uint8_t>(kClassJmp | op | kSrcX), dst, src, off, 0};
}

}  // namespace hyperion::ebpf

#endif  // HYPERION_TESTS_HELPERS_H_
