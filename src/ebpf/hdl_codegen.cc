#include "src/ebpf/hdl_codegen.h"

#include <algorithm>
#include <set>

#include "src/common/check.h"

namespace hyperion::ebpf {

namespace {

bool IsJump(const Insn& insn) {
  const uint8_t cls = insn.Class();
  if (cls != kClassJmp && cls != kClassJmp32) {
    return false;
  }
  const uint8_t op = insn.AluOp();
  return op != kJmpCall;  // calls are in-block units; exits/branches end blocks
}

bool IsCall(const Insn& insn) {
  return insn.Class() == kClassJmp && insn.AluOp() == kJmpCall;
}

bool IsMemOp(const Insn& insn) {
  const uint8_t cls = insn.Class();
  return cls == kClassLdx || cls == kClassStx || cls == kClassSt;
}

// Registers read by an instruction.
std::vector<uint8_t> ReadsOf(const Insn& insn) {
  std::vector<uint8_t> reads;
  const uint8_t cls = insn.Class();
  switch (cls) {
    case kClassAlu:
    case kClassAlu64:
      if (insn.AluOp() != kAluMov) {
        reads.push_back(insn.dst);
      }
      if (insn.IsSrcReg()) {
        reads.push_back(insn.src);
      }
      break;
    case kClassLdx:
      reads.push_back(insn.src);
      break;
    case kClassStx:
      reads.push_back(insn.dst);
      reads.push_back(insn.src);
      break;
    case kClassSt:
      reads.push_back(insn.dst);
      break;
    case kClassJmp:
    case kClassJmp32: {
      const uint8_t op = insn.AluOp();
      if (op == kJmpCall) {
        for (uint8_t r = 1; r <= 5; ++r) {
          reads.push_back(r);
        }
      } else if (op == kJmpExit) {
        reads.push_back(0);
      } else if (op != kJmpJa) {
        reads.push_back(insn.dst);
        if (insn.IsSrcReg()) {
          reads.push_back(insn.src);
        }
      }
      break;
    }
    default:
      break;
  }
  return reads;
}

// Register written by an instruction (-1 if none).
int WriteOf(const Insn& insn) {
  const uint8_t cls = insn.Class();
  switch (cls) {
    case kClassAlu:
    case kClassAlu64:
    case kClassLdx:
      return insn.dst;
    case kClassLd:
      return insn.dst;  // ld_imm64 first slot
    case kClassJmp:
      return IsCall(insn) ? 0 : -1;
    default:
      return -1;
  }
}

}  // namespace

double PipelinePlan::MeanIlp() const {
  uint64_t insns = 0;
  uint64_t stage_count = 0;
  for (const BlockPlan& block : blocks) {
    for (const PipelineStage& stage : block.stages) {
      insns += stage.insns.size();
    }
    stage_count += block.stages.size();
  }
  return stage_count == 0 ? 0.0 : static_cast<double>(insns) / static_cast<double>(stage_count);
}

uint32_t PipelinePlan::CriticalPathCycles() const {
  uint32_t total = 0;
  for (const BlockPlan& block : blocks) {
    total += block.cycles;
  }
  return total;
}

uint32_t PipelinePlan::InitiationInterval() const {
  const uint32_t mem_bound =
      (total_mem_ops + options.mem_ports - 1) / options.mem_ports;
  const uint32_t helper_bound = total_helper_calls * options.helper_cycles;
  return std::max<uint32_t>({1, mem_bound, helper_bound});
}

Result<PipelinePlan> CompileToPipeline(const Program& prog, CodegenOptions options) {
  if (prog.insns.empty()) {
    return InvalidArgument("cannot compile an empty program");
  }
  CHECK_GT(options.lanes, 0u);
  CHECK_GT(options.mem_ports, 0u);

  const auto& insns = prog.insns;
  // Leaders: entry, jump targets, instructions after jumps.
  std::set<size_t> leaders;
  leaders.insert(0);
  for (size_t i = 0; i < insns.size(); ++i) {
    const Insn& insn = insns[i];
    if (insn.IsLdImm64()) {
      ++i;  // skip the second slot
      continue;
    }
    if (IsJump(insn)) {
      if (insn.AluOp() != kJmpExit) {
        const int64_t target = static_cast<int64_t>(i) + 1 + insn.off;
        if (target < 0 || static_cast<size_t>(target) >= insns.size()) {
          return InvalidArgument("jump target out of program");
        }
        leaders.insert(static_cast<size_t>(target));
      }
      if (i + 1 < insns.size()) {
        leaders.insert(i + 1);
      }
    }
  }

  PipelinePlan plan;
  plan.program_name = prog.name;
  plan.options = options;
  plan.total_insns = static_cast<uint32_t>(insns.size());
  plan.block_of_insn.assign(insns.size(), 0);

  std::vector<size_t> sorted_leaders(leaders.begin(), leaders.end());
  for (size_t b = 0; b < sorted_leaders.size(); ++b) {
    const size_t first = sorted_leaders[b];
    const size_t last = b + 1 < sorted_leaders.size() ? sorted_leaders[b + 1] : insns.size();
    BlockPlan block;
    block.first = first;
    block.last = last;

    // List-schedule the block: earliest stage respecting RAW/WAW hazards,
    // lane capacity, and the memory-port limit. Helper calls serialize the
    // block for `helper_cycles`.
    std::vector<int> write_stage(kNumRegisters, -1);  // stage that produced reg
    std::vector<uint32_t> lane_used;                  // per stage
    std::vector<uint32_t> mem_used;                   // per stage
    uint32_t helper_stall_cycles = 0;
    int floor_stage = 0;  // calls create a barrier

    auto ensure_stage = [&](size_t s) {
      while (block.stages.size() <= s) {
        block.stages.emplace_back();
        lane_used.push_back(0);
        mem_used.push_back(0);
      }
    };

    for (size_t i = first; i < last; ++i) {
      const Insn& insn = insns[i];
      plan.block_of_insn[i] = plan.blocks.size();
      if (insn.IsLdImm64()) {
        // Occupies one slot; the second word is metadata.
        plan.block_of_insn[i + 1] = plan.blocks.size();
      }
      int earliest = floor_stage;
      for (uint8_t r : ReadsOf(insn)) {
        earliest = std::max(earliest, write_stage[r] + 1);  // RAW
      }
      const int w = WriteOf(insn);
      if (w >= 0) {
        earliest = std::max(earliest, write_stage[w] + 1);  // WAW
      }
      // Find a stage with lane (and mem-port) capacity.
      size_t s = static_cast<size_t>(earliest);
      while (true) {
        ensure_stage(s);
        const bool lane_ok = lane_used[s] < options.lanes;
        const bool mem_ok = !IsMemOp(insn) || mem_used[s] < options.mem_ports;
        if (lane_ok && mem_ok) {
          break;
        }
        ++s;
      }
      block.stages[s].insns.push_back(i);
      ++lane_used[s];
      if (IsMemOp(insn)) {
        ++mem_used[s];
        ++plan.total_mem_ops;
      }
      if (IsCall(insn)) {
        ++plan.total_helper_calls;
      }
      if (w >= 0) {
        write_stage[static_cast<size_t>(w)] = static_cast<int>(s);
      }
      if (IsCall(insn)) {
        // The helper engine runs for helper_cycles; later insns wait.
        helper_stall_cycles += options.helper_cycles - 1;
        floor_stage = static_cast<int>(s) + 1;
      }
      if (insn.IsLdImm64()) {
        ++i;
      }
    }
    block.cycles = static_cast<uint32_t>(block.stages.size()) + helper_stall_cycles;
    plan.blocks.push_back(std::move(block));
  }
  return plan;
}

uint64_t EstimateCycles(const PipelinePlan& plan, const std::vector<uint64_t>& exec_counts) {
  uint64_t cycles = 0;
  for (const BlockPlan& block : plan.blocks) {
    const uint64_t entries =
        block.first < exec_counts.size() ? exec_counts[block.first] : 0;
    cycles += entries * block.cycles;
  }
  return cycles;
}

}  // namespace hyperion::ebpf
