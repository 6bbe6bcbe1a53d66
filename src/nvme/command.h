// NVMe command set subset used by Hyperion.
//
// We model the semantics of the spec structures (64-byte SQE, 16-byte CQE)
// rather than their exact bit layout: opcode, namespace, LBA range, data
// buffers in place of SGL/PRP lists, and the command identifier / status
// fields needed for queue-pair completion matching.

#ifndef HYPERION_SRC_NVME_COMMAND_H_
#define HYPERION_SRC_NVME_COMMAND_H_

#include <cstdint>

#include "src/common/buffer.h"
#include "src/common/bytes.h"

namespace hyperion::nvme {

enum class Opcode : uint8_t {
  kFlush = 0x00,
  kWrite = 0x01,
  kRead = 0x02,
  kIdentify = 0x06,
};

enum class CmdStatus : uint8_t {
  kSuccess = 0x0,
  kInvalidOpcode = 0x1,
  kInvalidField = 0x2,
  kLbaOutOfRange = 0x80,
  kInternalError = 0x6,
  kAbortedByTimeout = 0x7,   // host watchdog expired and aborted the command
  kMediaError = 0x81,        // unrecovered media error (ECC exhausted)
};

// Transient statuses are worth reissuing with a fresh command; the rest are
// deterministic rejections that would fail identically on retry.
constexpr bool IsTransient(CmdStatus status) {
  return status == CmdStatus::kAbortedByTimeout || status == CmdStatus::kMediaError;
}

struct Command {
  uint16_t cid = 0;       // command identifier, echoed in the completion
  Opcode opcode = Opcode::kFlush;
  uint32_t nsid = 1;      // namespace id (1-based, per the spec)
  uint64_t slba = 0;      // starting LBA
  uint32_t nlb = 0;       // number of logical blocks, 0-based per spec (0 => 1 block)

  // SGL stand-in: the write payload as a scatter-gather chain of shared
  // Buffer segments — posting a command references the caller's buffers
  // rather than staging a copy.
  BufferChain data;
  // PRP stand-in: host memory the device writes into. A read's blocks land
  // here (exactly BlockCount() * kLbaSize bytes, else kInvalidField), and
  // so does Identify's data structure. The memory must outlive the
  // command's execution.
  MutableByteSpan dest;

  uint32_t BlockCount() const { return nlb + 1; }
};

struct Completion {
  uint16_t cid = 0;
  CmdStatus status = CmdStatus::kSuccess;
  uint16_t sq_id = 0;
};

}  // namespace hyperion::nvme

#endif  // HYPERION_SRC_NVME_COMMAND_H_
