// eBPF -> spatial pipeline compiler (paper §2.2).
//
// The paper's programming model lowers verified eBPF to HDL, extracting
// parallelism on the way (the hXDP / eHDL "program warping" line of work
// the authors cite). This module performs that compilation against a
// parameterized fabric model:
//
//   1. split the program into basic blocks;
//   2. list-schedule each block onto `lanes` parallel functional units,
//      honouring register RAW/WAW hazards and a single memory port;
//   3. helper calls map to dedicated hardware engines with fixed latency;
//   4. the resulting plan gives cycles-per-block at a configured Fmax.
//
// Because the verifier rejects back edges, every program is a DAG of
// blocks and the whole plan is a feed-forward pipeline: one packet can be
// in flight per stage, which is where the throughput of experiment E6
// comes from. EstimateCycles() combines the plan with an instruction-level
// execution profile (Vm::set_exec_counts) to price a concrete workload.

#ifndef HYPERION_SRC_EBPF_HDL_CODEGEN_H_
#define HYPERION_SRC_EBPF_HDL_CODEGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/ebpf/insn.h"
#include "src/sim/time.h"

namespace hyperion::ebpf {

struct CodegenOptions {
  uint32_t lanes = 4;          // parallel ALU lanes per stage
  uint32_t mem_ports = 1;      // loads/stores per stage
  uint32_t helper_cycles = 8;  // latency of a helper engine (CAM lookup etc.)
  double fmax_mhz = 250.0;     // achieved fabric clock
};

struct PipelineStage {
  std::vector<size_t> insns;  // instruction indices co-issued this cycle
};

struct BlockPlan {
  size_t first = 0;  // first instruction index of the block
  size_t last = 0;   // one past the last
  std::vector<PipelineStage> stages;
  uint32_t cycles = 0;  // stages plus helper stalls
};

struct PipelinePlan {
  std::string program_name;
  CodegenOptions options;
  std::vector<BlockPlan> blocks;
  std::vector<size_t> block_of_insn;  // insn index -> block index
  uint32_t total_insns = 0;

  // Instruction-level parallelism achieved: insns / issue slots used.
  double MeanIlp() const;
  // Worst-case cycles through the longest block chain (pipeline depth).
  uint32_t CriticalPathCycles() const;

  // Structural-hazard bound on pipelining: a feed-forward pipeline accepts
  // a new packet every II cycles, where II is limited by the shared memory
  // ports and the (single) helper engine. Throughput = fmax / II — this,
  // not per-packet latency, is where spatial execution beats a fast core.
  uint32_t total_mem_ops = 0;
  uint32_t total_helper_calls = 0;
  uint32_t InitiationInterval() const;
};

Result<PipelinePlan> CompileToPipeline(const Program& prog,
                                       CodegenOptions options = CodegenOptions());

// Cycles consumed by a run whose per-instruction execution counts are
// `exec_counts` (from Vm::set_exec_counts): each block charges its cycle
// count once per entry.
uint64_t EstimateCycles(const PipelinePlan& plan, const std::vector<uint64_t>& exec_counts);

}  // namespace hyperion::ebpf

#endif  // HYPERION_SRC_EBPF_HDL_CODEGEN_H_
