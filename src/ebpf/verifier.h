// eBPF static verifier (paper §2.2, §2.5).
//
// In a CPU-free system there is no privileged kernel to referee at runtime:
// the paper's position is that the *compiler/verifier* delivers the
// translation, multiplexing and isolation properties an OS normally would.
// This verifier performs the same style of symbolic path exploration as the
// Linux one, restricted to what a spatial backend can guarantee:
//
//   - every register has a tracked type: scalar (with constant tracking),
//     stack/context/map-value pointer with static offset, or map reference;
//   - loads/stores must target a pointer whose full [off, off+size) range
//     provably fits its region (stack 512 B, ctx_size, map value_size);
//   - map_lookup results are maybe-null until a null check dominates use;
//   - helper calls are checked against typed signatures;
//   - r10 is read-only; r0 must be an initialized scalar at exit;
//   - back edges are rejected (bounded execution, as in classic eBPF) —
//     a backend can therefore fully unroll the program into a pipeline;
//   - pointer arithmetic with verifier-unknown quantities is rejected.
//
// Programs that pass can be run by the interpreter with bounds checks
// disabled, or compiled to hardware with no runtime safety net at all —
// which is exactly the property Hyperion needs.

#ifndef HYPERION_SRC_EBPF_VERIFIER_H_
#define HYPERION_SRC_EBPF_VERIFIER_H_

#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/maps.h"

namespace hyperion::ebpf {

struct VerifyStats {
  uint64_t paths_explored = 0;
  uint64_t states_visited = 0;
  uint32_t max_depth = 0;
};

// Verifies `prog` against the maps it references. Returns kPermissionDenied
// with a precise diagnostic on the first provable violation.
Result<VerifyStats> Verify(const Program& prog, const MapRegistry& maps);

}  // namespace hyperion::ebpf

#endif  // HYPERION_SRC_EBPF_VERIFIER_H_
