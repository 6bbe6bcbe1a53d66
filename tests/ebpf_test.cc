// Tests for the eBPF toolchain: assembler, interpreter, maps, the verifier
// (including adversarial programs it must reject), and the HDL pipeline
// compiler's scheduling/cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/hdl_codegen.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/maps.h"
#include "src/ebpf/verifier.h"
#include "src/ebpf/vm.h"
#include "tests/helpers.h"

namespace hyperion::ebpf {
namespace {

Program MustAssemble(std::string_view src, uint32_t ctx_size = 1514) {
  auto prog = Assemble(src, "test", ctx_size);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return *prog;
}

uint64_t RunReturn(const Program& prog, Bytes ctx = Bytes(64, 0), MapRegistry* maps = nullptr) {
  MapRegistry local;
  Vm vm(maps != nullptr ? maps : &local);
  auto result = vm.Run(prog, MutableByteSpan(ctx));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->return_value : ~0ull;
}

// -- Assembler ---------------------------------------------------------

TEST(AssemblerTest, MovAndExit) {
  Program p = MustAssemble("mov r0, 42\nexit\n");
  ASSERT_EQ(p.insns.size(), 2u);
  EXPECT_EQ(RunReturn(p), 42u);
}

TEST(AssemblerTest, CommentsAndBlankLinesIgnored) {
  Program p = MustAssemble(R"(
      ; a comment
      mov r0, 1   ; trailing comment

      exit
  )");
  EXPECT_EQ(p.insns.size(), 2u);
}

TEST(AssemblerTest, LabelsResolveForwardAndProduceOffsets) {
  Program p = MustAssemble(R"(
      mov r0, 0
      ja done
      mov r0, 99
  done:
      exit
  )");
  EXPECT_EQ(RunReturn(p), 0u);
}

TEST(AssemblerTest, HexImmediates) {
  Program p = MustAssemble("mov r0, 0xff\nexit\n");
  EXPECT_EQ(RunReturn(p), 255u);
}

TEST(AssemblerTest, NegativeOffsetsInMemOperands) {
  Program p = MustAssemble(R"(
      mov r3, 7
      stxdw [r10-8], r3
      ldxdw r0, [r10-8]
      exit
  )");
  EXPECT_EQ(RunReturn(p), 7u);
}

TEST(AssemblerTest, UnknownMnemonicRejected) {
  EXPECT_FALSE(Assemble("frobnicate r0, 1\nexit\n").ok());
}

TEST(AssemblerTest, UndefinedLabelRejected) {
  EXPECT_FALSE(Assemble("ja nowhere\nexit\n").ok());
}

TEST(AssemblerTest, DuplicateLabelRejected) {
  EXPECT_FALSE(Assemble("x:\nmov r0, 1\nx:\nexit\n").ok());
}

TEST(AssemblerTest, BadRegisterRejected) {
  EXPECT_FALSE(Assemble("mov r11, 1\nexit\n").ok());
}

TEST(AssemblerTest, DisassembleRoundTripMnemonic) {
  Program p = MustAssemble("add r1, r2\nexit\n");
  EXPECT_EQ(Disassemble(p.insns[0]), "add r1, r2");
  EXPECT_EQ(Disassemble(p.insns[1]), "exit");
}

// -- Interpreter -------------------------------------------------------

TEST(VmTest, ArithmeticOps) {
  EXPECT_EQ(RunReturn(MustAssemble("mov r0, 10\nadd r0, 5\nexit\n")), 15u);
  EXPECT_EQ(RunReturn(MustAssemble("mov r0, 10\nsub r0, 3\nexit\n")), 7u);
  EXPECT_EQ(RunReturn(MustAssemble("mov r0, 6\nmul r0, 7\nexit\n")), 42u);
  EXPECT_EQ(RunReturn(MustAssemble("mov r0, 20\ndiv r0, 6\nexit\n")), 3u);
  EXPECT_EQ(RunReturn(MustAssemble("mov r0, 20\nmod r0, 6\nexit\n")), 2u);
  EXPECT_EQ(RunReturn(MustAssemble("mov r0, 0xf0\nand r0, 0x1f\nexit\n")), 0x10u);
  EXPECT_EQ(RunReturn(MustAssemble("mov r0, 1\nlsh r0, 10\nexit\n")), 1024u);
}

TEST(VmTest, DivisionByZeroYieldsZero) {
  Program p = MustAssemble(R"(
      mov r1, 0
      mov r0, 100
      div r0, r1
      exit
  )");
  EXPECT_EQ(RunReturn(p), 0u);
}

TEST(VmTest, Alu32TruncatesTo32Bits) {
  Program p = MustAssemble(R"(
      ld_imm64 r0, 0xffffffff
      add32 r0, 1
      exit
  )");
  EXPECT_EQ(RunReturn(p), 0u);  // wraps in 32 bits, zero-extended
}

TEST(VmTest, SignedComparisons) {
  // -1 (signed) > -2 via jsgt.
  Program p = MustAssemble(R"(
      mov r1, -1
      mov r2, -2
      mov r0, 0
      jsgt r1, r2, yes
      exit
  yes:
      mov r0, 1
      exit
  )");
  EXPECT_EQ(RunReturn(p), 1u);
}

TEST(VmTest, ContextLoadsSeeCallerBytes) {
  Program p = MustAssemble(R"(
      ldxb r0, [r1+3]
      exit
  )");
  Bytes ctx(16, 0);
  ctx[3] = 0xab;
  EXPECT_EQ(RunReturn(p, ctx), 0xabu);
}

TEST(VmTest, ContextStoresVisibleToCaller) {
  Program p = MustAssemble(R"(
      stw [r1+0], 0x11223344
      mov r0, 0
      exit
  )");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  ASSERT_TRUE(vm.Run(p, MutableByteSpan(ctx)).ok());
  EXPECT_EQ(GetU32(ctx, 0), 0x11223344u);
}

TEST(VmTest, OutOfBoundsCtxLoadTrapped) {
  Program p = MustAssemble("ldxdw r0, [r1+60]\nexit\n");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(64, 0);  // +60 with 8-byte load crosses the end
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx)).status().code(), StatusCode::kPermissionDenied);
}

TEST(VmTest, StackOverflowTrapped) {
  Program p = MustAssemble("ldxdw r0, [r10-520]\nexit\n");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx)).status().code(), StatusCode::kPermissionDenied);
}

TEST(VmTest, InstructionBudgetStopsInfiniteLoops) {
  // A back-edge loop (verifier would reject it; the VM must still defend).
  std::vector<Insn> insns;
  insns.push_back(Mov64Imm(0, 0));
  insns.push_back(JumpAlways(-1));  // jump to itself... offset -1 => pc stays
  insns.push_back(Exit());
  Program p{"loop", insns, 64};
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx), 10000).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(VmTest, MapLookupUpdateThroughHelpers) {
  MapRegistry maps;
  const uint32_t map_id = maps.Create({MapType::kHash, 4, 8, 16, "counters"});
  // Program: key = first 4 ctx bytes; counter++ via lookup-or-insert.
  Program p = MustAssemble(R"(
      ldxw r6, [r1+0]
      stxw [r10-4], r6
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup
      jne r0, 0, hit
      ; miss: insert 1
      stdw [r10-16], 1
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -4
      mov r3, r10
      add r3, -16
      mov r4, 0
      call map_update
      mov r0, 1
      exit
  hit:
      ldxdw r7, [r0+0]
      add r7, 1
      stxdw [r0+0], r7
      mov r0, r7
      exit
  )");
  // Decoded once, run three times, profiled per instruction slot.
  const Executable exe = Decode(p);
  ASSERT_EQ(exe.size(), p.insns.size());
  Vm vm(&maps);
  std::vector<uint64_t> counts(exe.size(), 0);
  vm.set_exec_counts(&counts);
  Bytes ctx(8, 0);
  ctx[0] = 0x2a;
  // First run: miss path inserts 1 (17 instructions).
  Result<ExecResult> run = vm.Run(exe, MutableByteSpan(ctx));
  EXPECT_EQ(run->return_value, 1u);
  EXPECT_EQ(run->insns_executed, 17u);
  // Second and third runs: hit path increments (12 instructions).
  EXPECT_EQ(vm.Run(exe, MutableByteSpan(ctx))->return_value, 2u);
  run = vm.Run(exe, MutableByteSpan(ctx));
  EXPECT_EQ(run->return_value, 3u);
  EXPECT_EQ(run->insns_executed, 12u);
  // The profile indexes slots: ld_map_fd's second half (slot 3) never
  // runs; the miss path's exit (slot 18) ran once, the hit path's twice.
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[18], 1u);
  EXPECT_EQ(counts[23], 2u);
  // The map itself holds 3 now.
  Bytes key = {0x2a, 0, 0, 0};
  auto value = maps.Get(map_id)->Lookup(ByteSpan(key.data(), key.size()));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(GetU64(*value, 0), 3u);
}

TEST(VmTest, HelperKeyWindowLeavingItsRegionTrapped) {
  // Unverified programs run straight on the Vm: the verifier would reject
  // both key pointers, so only the Vm's check of the whole 8-byte key
  // window stands between them and memory past the region.
  MapRegistry maps;
  maps.Create({MapType::kHash, 8, 8, 16, "wide_keys"});
  Program stack_tail = MustAssemble(R"(
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup
      exit
  )");
  Program ctx_tail = MustAssemble(R"(
      mov r2, r1
      add r2, 60
      ld_map_fd r1, 0
      call map_lookup
      exit
  )");
  Vm vm(&maps);
  Bytes ctx(64, 0);  // +60 with an 8-byte key crosses the end
  Result<ExecResult> stack_run = vm.Run(stack_tail, MutableByteSpan(ctx));
  EXPECT_EQ(stack_run.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(stack_run.status().message(), "stack load out of bounds");
  Result<ExecResult> ctx_run = vm.Run(ctx_tail, MutableByteSpan(ctx));
  EXPECT_EQ(ctx_run.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(ctx_run.status().message(), "ctx load out of bounds");
}

TEST(VmTest, MapUpdateFromAMapValueCopiesItFirst) {
  // The value argument points into the map's own value arena, which the
  // insert of a new key grows: the helper must copy it before updating.
  MapRegistry maps;
  const uint32_t map_id = maps.Create({MapType::kHash, 8, 8, 16, "copies"});
  Map* map = maps.Get(map_id);
  Bytes key_a;
  PutU64(key_a, 1);
  Bytes value_a;
  PutU64(value_a, 0x1122334455667788ull);
  ASSERT_TRUE(map->Update(key_a, value_a).ok());
  Program p = MustAssemble(R"(
      stdw [r10-8], 1
      stdw [r10-16], 2
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -8
      call map_lookup
      jeq r0, 0, miss
      mov r3, r0
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -16
      mov r4, 0
      call map_update
      exit
  miss:
      mov r0, 1
      exit
  )");
  Vm vm(&maps);
  Bytes ctx(8, 0);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 0u);
  Bytes key_b;
  PutU64(key_b, 2);
  Result<Bytes> value_b = map->Lookup(key_b);
  ASSERT_TRUE(value_b.ok());
  EXPECT_EQ(*value_b, value_a);
}

TEST(VmTest, KtimeHelperReadsVirtualClock) {
  MapRegistry maps;
  sim::Engine engine;
  engine.Advance(12345);
  Vm vm(&maps, &engine);
  Program p = MustAssemble("call ktime\nexit\n");
  Bytes ctx(8, 0);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 12345u);
}

TEST(VmTest, EachRunStartsWithAnEmptyStack) {
  // The eBPF ABI's working memory starts empty on every invocation: what
  // one run stores, at either end of the stack and through an atomic add,
  // must read as zero in the next, even when the storing run then traps.
  Program store = MustAssemble(R"(
      stdw [r10-8], 0x55
      stb [r10-512], 1
      mov r3, 9
      xadddw [r10-300], r3
      ldxdw r0, [r1+4096]
      exit
  )");
  Program load = MustAssemble(R"(
      ldxdw r0, [r10-8]
      ldxb r2, [r10-512]
      or r0, r2
      ldxdw r2, [r10-300]
      or r0, r2
      exit
  )");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  const Executable exe = Decode(load);
  EXPECT_EQ(vm.Run(exe, MutableByteSpan(ctx))->return_value, 0u);
  EXPECT_EQ(vm.Run(store, MutableByteSpan(ctx)).status().message(), "ctx load out of bounds");
  EXPECT_EQ(vm.Run(exe, MutableByteSpan(ctx))->return_value, 0u);
}

TEST(VmTest, RegisterNumbersPastR10Trap) {
  // The wire format's 4-bit register fields reach r15; an interpreter with
  // 11 registers must trap them, not index past its register file.
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  const Insn bad[] = {
      Mov64Imm(11, 1),               // ALU dst
      Alu64Reg(kAluAdd, 0, 12),      // ALU src
      LoadMem(kSizeW, 15, 1, 0),     // LDX dst
      LoadMem(kSizeW, 0, 13, 0),     // LDX src
      StoreImm(kSizeW, 14, 0, 1),    // ST base
      StoreReg(kSizeW, 10, -8, 15),  // STX src
      AtomicAdd(kSizeDw, 11, 0, 0),  // atomic base
      JumpImm(kJmpJeq, 12, 0, 0),    // JMP dst
      JumpReg(kJmpJeq, 0, 15, 0),    // JMP src
  };
  for (const Insn& insn : bad) {
    Program p{"bad_reg", {Mov64Imm(0, 0), insn, Exit()}, 8};
    Result<ExecResult> run = vm.Run(p, MutableByteSpan(ctx));
    EXPECT_EQ(run.status().code(), StatusCode::kPermissionDenied) << Disassemble(insn);
    EXPECT_EQ(run.status().message(), "bad register number") << Disassemble(insn);
  }
  std::vector<Insn> wide;
  LoadImm64(wide, 13, 42);  // LD_IMM64 dst
  Program p{"bad_reg", {wide[0], wide[1], Exit()}, 8};
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx)).status().message(), "bad register number");
  // Fields an instruction does not use are not registers.
  Insn be = EndianSwap(0, /*to_be=*/true, 16);
  be.src = 15;
  Insn exit = Exit();
  exit.dst = 14;
  Program unused{"unused_fields", {Mov64Imm(0, 0x102), be, exit}, 8};
  EXPECT_EQ(vm.Run(unused, MutableByteSpan(ctx))->return_value, 0x201u);
}

TEST(VmTest, ForgedMapValueHandleIsASandboxViolation) {
  // An unverified program can forge a map-value pointer whose handle lies
  // past the value arena; the window check refuses it like any other
  // out-of-bounds access instead of aborting the process.
  MapRegistry maps;
  maps.Create({MapType::kHash, 4, 8, 16, "m"});
  Vm vm(&maps);
  Bytes ctx(8, 0);
  for (const bool store : {false, true}) {
    std::vector<Insn> insns;
    LoadImm64(insns, 1, MakeTagged(kTagMapValue, PackMapValue(0, 0xffff, 0)));
    insns.push_back(store ? StoreImm(kSizeB, 1, 0, 1) : LoadMem(kSizeB, 0, 1, 0));
    insns.push_back(Exit());
    Result<ExecResult> run = vm.Run(Program{"forged", insns, 8}, MutableByteSpan(ctx));
    EXPECT_EQ(run.status().code(), StatusCode::kPermissionDenied);
    EXPECT_EQ(run.status().message(),
              store ? "map value store out of bounds" : "map value load out of bounds");
  }
}

// Each instruction slot that cannot execute decodes to a trap with the
// interpreter's message; the trap fires only when control reaches it.
struct TrapCase {
  const char* message;
  std::vector<Insn> slots;  // jumped over when unreached
};

class VmTrapTest : public ::testing::TestWithParam<TrapCase> {};

TEST_P(VmTrapTest, FailsWithItsMessageOnlyWhenReached) {
  const TrapCase& c = GetParam();
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  std::vector<Insn> reached = {Mov64Imm(0, 7)};
  reached.insert(reached.end(), c.slots.begin(), c.slots.end());
  reached.push_back(Exit());
  Result<ExecResult> run = vm.Run(Program{"trap", reached, 8}, MutableByteSpan(ctx));
  EXPECT_EQ(run.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(run.status().message(), c.message);

  std::vector<Insn> skipped = {Mov64Imm(0, 7),
                               JumpAlways(static_cast<int16_t>(c.slots.size()))};
  skipped.insert(skipped.end(), c.slots.begin(), c.slots.end());
  skipped.push_back(Exit());
  Result<ExecResult> clean = vm.Run(Program{"skipped", skipped, 8}, MutableByteSpan(ctx));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->return_value, 7u);
}

INSTANTIATE_TEST_SUITE_P(
    Messages, VmTrapTest,
    ::testing::Values(
        TrapCase{"bad endian width", {EndianSwap(0, true, 24)}},
        TrapCase{"unknown ALU op", {Insn{kClassAlu64 | 0xe0, 0, 0, 0, 1}}},
        TrapCase{"malformed LD instruction", {Insn{kClassLd | kSizeW | kModeImm, 0, 0, 0, 1}}},
        TrapCase{"unsupported atomic operation",
                 {Insn{kClassStx | kSizeDw | kModeAtomic, 10, 0, -8, 0x40}}},
        TrapCase{"unknown jump op", {Insn{kClassJmp | 0xf0, 0, 0, 0, 0}}},
        TrapCase{"bad register number", {Mov64Imm(13, 0)}},
        TrapCase{"jump out of program", {JumpImm(kJmpJeq, 0, 7, 100)}}),
    [](const ::testing::TestParamInfo<TrapCase>& info) {
      std::string name = info.param.message;
      std::replace(name.begin(), name.end(), ' ', '_');
      return name;
    });

TEST(VmTest, TrapsFireAfterTheBudgetCheckAndRunningOffTheEndBeforeIt) {
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  // A trap slot still costs its budget check first.
  Program trap{"trap", {Mov64Imm(0, 0), Mov64Imm(13, 0), Exit()}, 8};
  EXPECT_EQ(vm.Run(trap, MutableByteSpan(ctx), 1).status().code(),
            StatusCode::kDeadlineExceeded);
  // Falling (or jumping) to pc == size fails before the budget is checked.
  Program no_exit{"no_exit", {Mov64Imm(0, 0)}, 8};
  EXPECT_EQ(vm.Run(no_exit, MutableByteSpan(ctx), 1).status().message(),
            "program counter ran off the end");
  Program to_end{"to_end", {JumpAlways(0), JumpImm(kJmpJeq, 0, 0, 0)}, 8};
  EXPECT_EQ(vm.Run(to_end, MutableByteSpan(ctx), 2).status().message(),
            "program counter ran off the end");
  // So does an empty program, decoded or default-constructed.
  EXPECT_EQ(vm.Run(Program{"empty", {}, 8}, MutableByteSpan(ctx), 0).status().message(),
            "program counter ran off the end");
  EXPECT_EQ(vm.Run(Executable(), MutableByteSpan(ctx)).status().message(),
            "program counter ran off the end");
  // An LD_IMM64 whose second half is missing cannot execute.
  std::vector<Insn> wide;
  LoadImm64(wide, 0, 1);
  Program cut{"cut", {Mov64Imm(0, 0), wide[0]}, 8};
  EXPECT_EQ(vm.Run(cut, MutableByteSpan(ctx)).status().message(), "malformed LD instruction");
}

// -- Maps ------------------------------------------------------------------

TEST(MapsTest, HashMapBasicOps) {
  Map map({MapType::kHash, 4, 8, 4, "m"});
  Bytes k1 = {1, 0, 0, 0};
  Bytes v1 = {9, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(map.Update(ByteSpan(k1.data(), 4), ByteSpan(v1.data(), 8)).ok());
  EXPECT_EQ(*map.Lookup(ByteSpan(k1.data(), 4)), v1);
  ASSERT_TRUE(map.Delete(ByteSpan(k1.data(), 4)).ok());
  EXPECT_FALSE(map.Lookup(ByteSpan(k1.data(), 4)).ok());
}

TEST(MapsTest, HashMapEnforcesMaxEntries) {
  Map map({MapType::kHash, 4, 4, 2, "m"});
  for (uint32_t i = 0; i < 2; ++i) {
    Bytes k;
    PutU32(k, i);
    Bytes v = {1, 2, 3, 4};
    ASSERT_TRUE(map.Update(ByteSpan(k.data(), 4), ByteSpan(v.data(), 4)).ok());
  }
  Bytes k;
  PutU32(k, 99);
  Bytes v = {0, 0, 0, 0};
  EXPECT_EQ(map.Update(ByteSpan(k.data(), 4), ByteSpan(v.data(), 4)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(MapsTest, SlotReuseAfterDelete) {
  Map map({MapType::kHash, 4, 4, 2, "m"});
  Bytes k1 = {1, 0, 0, 0};
  Bytes k2 = {2, 0, 0, 0};
  Bytes k3 = {3, 0, 0, 0};
  Bytes v = {7, 7, 7, 7};
  ASSERT_TRUE(map.Update(ByteSpan(k1.data(), 4), ByteSpan(v.data(), 4)).ok());
  ASSERT_TRUE(map.Update(ByteSpan(k2.data(), 4), ByteSpan(v.data(), 4)).ok());
  ASSERT_TRUE(map.Delete(ByteSpan(k1.data(), 4)).ok());
  EXPECT_TRUE(map.Update(ByteSpan(k3.data(), 4), ByteSpan(v.data(), 4)).ok());
  EXPECT_EQ(map.EntryCount(), 2u);
}

TEST(MapsTest, ArrayMapAlwaysPopulated) {
  Map map({MapType::kArray, 4, 8, 8, "a"});
  EXPECT_EQ(map.EntryCount(), 8u);
  Bytes k;
  PutU32(k, 3);
  auto v = map.Lookup(ByteSpan(k.data(), 4));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(GetU64(*v, 0), 0u);
  Bytes k_bad;
  PutU32(k_bad, 8);
  EXPECT_FALSE(map.Lookup(ByteSpan(k_bad.data(), 4)).ok());
}

TEST(MapsTest, KeySizeMismatchRejected) {
  Map map({MapType::kHash, 4, 4, 4, "m"});
  Bytes short_key = {1, 2};
  EXPECT_FALSE(map.Lookup(ByteSpan(short_key.data(), 2)).ok());
}

TEST(MapsTest, HandleBoundsAreComputedWithoutWrapping) {
  // handle + 1 wraps to 0 in 32 bits; the arena bound must not.
  Map map({MapType::kArray, 4, 8, 4, "a"});
  EXPECT_TRUE(map.HasSlot(3));
  EXPECT_FALSE(map.HasSlot(4));
  EXPECT_FALSE(map.HasSlot(UINT32_MAX));
  EXPECT_TRUE(map.ValueByHandle(3).ok());
  EXPECT_EQ(map.ValueByHandle(UINT32_MAX).status().code(), StatusCode::kOutOfRange);
}

TEST(MapsDeathTest, MutableValueChecksAWrappingHandle) {
  Map map({MapType::kArray, 4, 8, 4, "a"});
  EXPECT_EQ(map.MutableValue(3).size(), 8u);
  EXPECT_DEATH(map.MutableValue(UINT32_MAX), "past the value arena");
}

// Seeded random insert/update/delete/lookup against a reference model of
// the whole contract: contents, max_entries, and handles, which a free
// list hands back last-freed-first and otherwise numbers in insert order.
void ChurnAgainstReference(uint32_t key_size, uint64_t seed) {
  constexpr uint32_t kMaxEntries = 300;
  Map map({MapType::kHash, key_size, 8, kMaxEntries, "churn"});
  struct Entry {
    uint32_t slot;
    Bytes value;
  };
  std::map<uint32_t, Entry> reference;  // by key id
  std::vector<uint32_t> free_slots;
  uint32_t next_slot = 0;
  Rng rng(seed);
  // Keys share every byte but the id in their last four, the worst case
  // for a weak hash.
  const auto key_of = [key_size](uint32_t id) {
    Bytes key(key_size, 0x5a);
    std::memcpy(key.data() + key_size - 4, &id, 4);
    return key;
  };
  const auto check_all = [&] {
    ASSERT_EQ(map.EntryCount(), reference.size());
    for (const auto& [id, entry] : reference) {
      ASSERT_EQ(map.LookupHandle(key_of(id)), entry.slot);
      ASSERT_EQ(*map.Lookup(key_of(id)), entry.value);
    }
  };
  for (int op = 0; op < 20000; ++op) {
    const auto id = static_cast<uint32_t>(rng.Uniform(2 * kMaxEntries));
    const Bytes key = key_of(id);
    const auto it = reference.find(id);
    const uint64_t pick = rng.Uniform(10);
    if (pick < 5) {
      Bytes value;
      PutU64(value, rng.Next());
      Result<uint32_t> slot = map.Update(key, value);
      if (it != reference.end()) {
        ASSERT_EQ(*slot, it->second.slot);
        it->second.value = value;
      } else if (reference.size() == kMaxEntries) {
        ASSERT_EQ(slot.status().code(), StatusCode::kResourceExhausted);
      } else {
        uint32_t expect = next_slot;
        if (!free_slots.empty()) {
          expect = free_slots.back();
          free_slots.pop_back();
        } else {
          ++next_slot;
        }
        ASSERT_EQ(*slot, expect);
        reference.emplace(id, Entry{expect, value});
      }
    } else if (pick < 8) {
      Status deleted = map.Delete(key);
      if (it == reference.end()) {
        ASSERT_EQ(deleted.code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(deleted.ok());
        free_slots.push_back(it->second.slot);
        reference.erase(it);
      }
    } else if (it == reference.end()) {
      ASSERT_EQ(map.LookupHandle(key), std::nullopt);
      ASSERT_EQ(map.Lookup(key).status().code(), StatusCode::kNotFound);
    } else {
      ASSERT_EQ(map.LookupHandle(key), it->second.slot);
    }
    if (op % 1000 == 0) {
      check_all();
    }
  }
  check_all();
  // Empty the table in a random order, checking every survivor after each
  // delete: every member of every probe run, the longest included, is
  // removed from every position in its run.
  std::vector<uint32_t> ids;
  for (const auto& [id, entry] : reference) {
    ids.push_back(id);
  }
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.Uniform(i)]);
  }
  for (const uint32_t id : ids) {
    ASSERT_TRUE(map.Delete(key_of(id)).ok());
    reference.erase(id);
    ASSERT_EQ(map.LookupHandle(key_of(id)), std::nullopt);
    check_all();
  }
  EXPECT_EQ(map.EntryCount(), 0u);
}

TEST(MapsTest, IndexChurnMatchesReference) {
  for (const uint32_t key_size : {4u, 8u, 13u, 16u}) {
    SCOPED_TRACE(key_size);
    ChurnAgainstReference(key_size, 100 + key_size);
  }
}

// -- Verifier ---------------------------------------------------------

VerifyStats MustVerify(const Program& p, const MapRegistry& maps) {
  auto stats = Verify(p, maps);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? *stats : VerifyStats{};
}

std::string RejectionOf(const Program& p, const MapRegistry& maps) {
  auto stats = Verify(p, maps);
  EXPECT_FALSE(stats.ok());
  return stats.ok() ? "" : std::string(stats.status().message());
}

TEST(VerifierTest, AcceptsMinimalProgram) {
  MapRegistry maps;
  MustVerify(MustAssemble("mov r0, 0\nexit\n"), maps);
}

TEST(VerifierTest, AcceptsBoundedCtxAccess) {
  MapRegistry maps;
  MustVerify(MustAssemble("ldxw r0, [r1+100]\nexit\n", 1514), maps);
}

TEST(VerifierTest, RejectsCtxOverflow) {
  MapRegistry maps;
  Program p = MustAssemble("ldxw r0, [r1+2000]\nexit\n", 1514);
  EXPECT_NE(RejectionOf(p, maps).find("context access"), std::string::npos);
}

TEST(VerifierTest, RejectsStackOverflow) {
  MapRegistry maps;
  Program p = MustAssemble("ldxdw r0, [r10-520]\nexit\n");
  EXPECT_NE(RejectionOf(p, maps).find("stack access"), std::string::npos);
}

TEST(VerifierTest, RejectsUninitializedRead) {
  MapRegistry maps;
  Program p = MustAssemble("add r0, r3\nexit\n");
  EXPECT_NE(RejectionOf(p, maps).find("uninitialized"), std::string::npos);
}

TEST(VerifierTest, RejectsExitWithoutReturnValue) {
  MapRegistry maps;
  Program p = MustAssemble("exit\n");
  EXPECT_NE(RejectionOf(p, maps).find("r0"), std::string::npos);
}

TEST(VerifierTest, RejectsWritesToFramePointer) {
  MapRegistry maps;
  Program p = MustAssemble("mov r10, 0\nexit\n");
  EXPECT_NE(RejectionOf(p, maps).find("read-only"), std::string::npos);
}

TEST(VerifierTest, RejectsRegisterNumbersPastR10InEveryClass) {
  // 4-bit wire fields reach r15; the verifier must reject them before it
  // indexes its 11 register states with them.
  MapRegistry maps;
  std::vector<Insn> wide;
  LoadImm64(wide, 12, 1);
  const std::vector<std::vector<Insn>> bad = {
      {Mov64Imm(11, 0)},                     // ALU64
      {Alu32Reg(kAluAdd, 0, 15)},            // ALU
      {wide[0], wide[1]},                    // LD
      {LoadMem(kSizeW, 0, 13, 0)},           // LDX
      {StoreImm(kSizeW, 14, 0, 0)},          // ST
      {StoreReg(kSizeDw, 10, -8, 15)},       // STX
      {JumpImm(kJmpJeq, 11, 0, 0)},          // JMP
      {Insn{kClassJmp32 | kJmpJgt | kSrcX, 0, 12, 0, 0}},  // JMP32
  };
  for (const std::vector<Insn>& insns : bad) {
    Program p{"bad_reg", {Mov64Imm(0, 0)}, 64};
    p.insns.insert(p.insns.end(), insns.begin(), insns.end());
    p.insns.push_back(Exit());
    EXPECT_NE(RejectionOf(p, maps).find("bad register number"), std::string::npos)
        << Disassemble(insns[0]);
  }
}

TEST(VerifierTest, RejectsUndefinedOpNibblesWithTheVmsMessage) {
  // Op nibbles 0xe and 0xf name no ALU operation and no jump. The VM traps
  // a slot holding one, so the verifier must not accept a program that
  // reaches it; both report the same message.
  MapRegistry maps;
  const std::pair<uint8_t, const char*> classes[] = {
      {kClassAlu, "unknown ALU op"},
      {kClassAlu64, "unknown ALU op"},
      {kClassJmp, "unknown jump op"},
      {kClassJmp32, "unknown jump op"},
  };
  for (const auto& [cls, message] : classes) {
    for (const uint8_t op : {uint8_t{0xe0}, uint8_t{0xf0}}) {
      for (const uint8_t source : {kSrcK, kSrcX}) {
        const Insn undefined{static_cast<uint8_t>(cls | op | source), 0, 1, 0, 0};
        const Program p{"undefined_op", {Mov64Imm(0, 0), Mov64Imm(1, 0), undefined, Exit()}, 64};
        EXPECT_NE(RejectionOf(p, maps).find(message), std::string::npos) << Disassemble(undefined);
        Vm vm(&maps);
        Bytes ctx(64);
        const auto run = vm.Run(p, MutableByteSpan(ctx));
        ASSERT_FALSE(run.ok()) << Disassemble(undefined);
        EXPECT_NE(run.status().message().find(message), std::string::npos)
            << run.status().ToString();
      }
    }
  }
}

TEST(VerifierTest, RejectsBackEdges) {
  MapRegistry maps;
  std::vector<Insn> insns;
  insns.push_back(Mov64Imm(0, 0));
  insns.push_back(Alu64Imm(kAluAdd, 0, 1));
  insns.push_back(JumpImm(kJmpJlt, 0, 10, -2));  // loop back
  insns.push_back(Exit());
  Program p{"loop", insns, 64};
  EXPECT_NE(RejectionOf(p, maps).find("back edge"), std::string::npos);
}

TEST(VerifierTest, RejectsUncheckedMapValueDeref) {
  MapRegistry maps;
  maps.Create({MapType::kHash, 4, 8, 4, "m"});
  Program p = MustAssemble(R"(
      stw [r10-4], 0
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup
      ldxdw r0, [r0+0]    ; no null check!
      exit
  )");
  EXPECT_NE(RejectionOf(p, maps).find("null"), std::string::npos);
}

TEST(VerifierTest, AcceptsNullCheckedMapValueDeref) {
  MapRegistry maps;
  maps.Create({MapType::kHash, 4, 8, 4, "m"});
  Program p = MustAssemble(R"(
      stw [r10-4], 0
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup
      jeq r0, 0, miss
      ldxdw r0, [r0+0]
      exit
  miss:
      mov r0, 0
      exit
  )");
  MustVerify(p, maps);
}

TEST(VerifierTest, RejectsMapValueOverflowEvenAfterNullCheck) {
  MapRegistry maps;
  maps.Create({MapType::kHash, 4, 8, 4, "m"});
  Program p = MustAssemble(R"(
      stw [r10-4], 0
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup
      jeq r0, 0, miss
      ldxdw r0, [r0+8]    ; value_size is 8; offset 8 is out
      exit
  miss:
      mov r0, 0
      exit
  )");
  EXPECT_NE(RejectionOf(p, maps).find("map value access"), std::string::npos);
}

TEST(VerifierTest, RejectsUnknownMapReference) {
  MapRegistry maps;  // empty registry
  Program p = MustAssemble(R"(
      ld_map_fd r1, 5
      mov r0, 0
      exit
  )");
  EXPECT_NE(RejectionOf(p, maps).find("unknown map"), std::string::npos);
}

TEST(VerifierTest, CtxAccessAtExactFrameLengthIsTheBoundary) {
  // XDP frame contexts are verified against the exact frame length: a load
  // whose last byte lands on ctx_size-1 passes, one byte further rejects.
  MapRegistry maps;
  constexpr uint32_t kFrame = 64;
  MustVerify(MustAssemble("ldxb r0, [r1+63]\nexit\n", kFrame), maps);
  MustVerify(MustAssemble("ldxw r0, [r1+60]\nexit\n", kFrame), maps);
  MustVerify(MustAssemble("ldxdw r0, [r1+56]\nexit\n", kFrame), maps);
  EXPECT_NE(RejectionOf(MustAssemble("ldxb r0, [r1+64]\nexit\n", kFrame), maps)
                .find("context access"),
            std::string::npos);
  EXPECT_NE(RejectionOf(MustAssemble("ldxw r0, [r1+61]\nexit\n", kFrame), maps)
                .find("context access"),
            std::string::npos);
  EXPECT_NE(RejectionOf(MustAssemble("ldxdw r0, [r1+57]\nexit\n", kFrame), maps)
                .find("context access"),
            std::string::npos);
  // Stores obey the same boundary.
  MustVerify(MustAssemble("mov r2, 0\nstxb [r1+63], r2\nmov r0, 0\nexit\n", kFrame), maps);
  EXPECT_NE(RejectionOf(
                MustAssemble("mov r2, 0\nstxw [r1+62], r2\nmov r0, 0\nexit\n", kFrame), maps)
                .find("context access"),
            std::string::npos);
}

TEST(VerifierTest, RejectsHelperCallWithoutMapFd) {
  // A scalar in r1 is not a map reference: the helper contract demands an
  // ld_map_fd-produced register, whatever the scalar's value happens to be.
  MapRegistry maps;
  maps.Create({MapType::kHash, 4, 8, 4, "m"});
  Program p = MustAssemble(R"(
      stw [r10-4], 0
      mov r1, 0          ; a valid map id, but a plain scalar
      mov r2, r10
      add r2, -4
      call map_lookup
      mov r0, 0
      exit
  )");
  EXPECT_NE(RejectionOf(p, maps).find("map reference"), std::string::npos);
}

TEST(VerifierTest, RejectionHappensBeforeCodegen) {
  // The synthesis contract: hdl_codegen only ever sees verified programs.
  // A program with a back edge must die in Verify; the compile entry point
  // is gated on that success, so the bad program never reaches it.
  MapRegistry maps;
  std::vector<Insn> insns;
  insns.push_back(Mov64Imm(0, 0));
  insns.push_back(Alu64Imm(kAluAdd, 0, 1));
  insns.push_back(JumpImm(kJmpJlt, 0, 10, -2));
  insns.push_back(Exit());
  Program looping{"loop", insns, 64};
  auto verdict = Verify(looping, maps);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kPermissionDenied);

  // The same gate admits a straight-line program all the way to a pipeline
  // plan, proving the rejection above is the verifier and not the codegen.
  Program straight = MustAssemble("mov r0, 2\nexit\n");
  MustVerify(straight, maps);
  auto plan = CompileToPipeline(straight, CodegenOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(plan->InitiationInterval(), 1u);
}

TEST(VerifierTest, RejectsPointerArithmeticWithUnknownScalar) {
  MapRegistry maps;
  Program p = MustAssemble(R"(
      ldxw r3, [r1+0]   ; unknown scalar from the packet
      mov r2, r10
      add r2, r3        ; stack pointer + attacker-controlled value
      ldxdw r0, [r2+0]
      exit
  )");
  EXPECT_NE(RejectionOf(p, maps).find("unbounded scalar"), std::string::npos);
}

TEST(VerifierTest, RejectsPointerLeakToNonStackMemory) {
  MapRegistry maps;
  Program p = MustAssemble(R"(
      mov r3, r10
      stxdw [r1+0], r3   ; write stack pointer into the packet
      mov r0, 0
      exit
  )");
  EXPECT_NE(RejectionOf(p, maps).find("spilled"), std::string::npos);
}

TEST(VerifierTest, RejectsHelperWithWrongArgType) {
  MapRegistry maps;
  maps.Create({MapType::kHash, 4, 8, 4, "m"});
  Program p = MustAssemble(R"(
      mov r1, 0          ; not a map reference
      mov r2, r10
      add r2, -4
      stw [r10-4], 0
      call map_lookup
      mov r0, 0
      exit
  )");
  EXPECT_NE(RejectionOf(p, maps).find("map reference"), std::string::npos);
}

TEST(VerifierTest, BranchesExploreBothPaths) {
  MapRegistry maps;
  // r0 initialized on only one path: must be rejected.
  Program p = MustAssemble(R"(
      ldxb r3, [r1+0]
      jeq r3, 0, skip
      mov r0, 1
  skip:
      exit
  )");
  EXPECT_NE(RejectionOf(p, maps).find("r0"), std::string::npos);
  // And the fixed version verifies, exploring 2 paths.
  Program fixed = MustAssemble(R"(
      mov r0, 0
      ldxb r3, [r1+0]
      jeq r3, 0, skip
      mov r0, 1
  skip:
      exit
  )");
  VerifyStats stats = MustVerify(fixed, maps);
  EXPECT_GE(stats.paths_explored, 2u);
}

// Cross-check: every program the verifier accepts must run without the
// VM's runtime sandbox tripping.
TEST(VerifierTest, AcceptedProgramsRunCleanly) {
  MapRegistry maps;
  maps.Create({MapType::kHash, 4, 8, 64, "m"});
  const char* sources[] = {
      "mov r0, 0\nexit\n",
      "ldxw r0, [r1+8]\nadd r0, 1\nexit\n",
      "mov r4, 5\nstxdw [r10-8], r4\nldxdw r0, [r10-8]\nexit\n",
  };
  for (const char* src : sources) {
    Program p = MustAssemble(src, 64);
    MustVerify(p, maps);
    Vm vm(&maps);
    Bytes ctx(64, 0);
    EXPECT_TRUE(vm.Run(p, MutableByteSpan(ctx)).ok()) << src;
  }
}

// -- HDL codegen -------------------------------------------------------

TEST(HdlCodegenTest, IndependentInsnsCoIssue) {
  // Four independent movs fit one 4-lane stage.
  Program p = MustAssemble(R"(
      mov r1, 1
      mov r2, 2
      mov r3, 3
      mov r4, 4
      mov r0, 0
      exit
  )");
  auto plan = CompileToPipeline(p, {.lanes = 4});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->blocks.size(), 1u);
  // 4 independent movs co-issue in stage 0; `mov r0` overflows to stage 1
  // and `exit` (RAW on r0) to stage 2 — far better than 6 serial cycles.
  EXPECT_EQ(plan->blocks[0].stages.size(), 3u);
  EXPECT_GE(plan->MeanIlp(), 2.0);
}

TEST(HdlCodegenTest, DependentChainSerializes) {
  Program p = MustAssemble(R"(
      mov r0, 1
      add r0, 1
      add r0, 1
      add r0, 1
      exit
  )");
  auto plan = CompileToPipeline(p, {.lanes = 4});
  ASSERT_TRUE(plan.ok());
  // The adds form a RAW chain: at least 4 stages.
  EXPECT_GE(plan->blocks[0].stages.size(), 4u);
}

TEST(HdlCodegenTest, MemPortLimitsLoadsPerStage) {
  Program p = MustAssemble(R"(
      ldxw r2, [r1+0]
      ldxw r3, [r1+4]
      ldxw r4, [r1+8]
      mov r0, 0
      exit
  )");
  auto plan = CompileToPipeline(p, {.lanes = 4, .mem_ports = 1});
  ASSERT_TRUE(plan.ok());
  // 3 independent loads, 1 port: >= 3 stages.
  EXPECT_GE(plan->blocks[0].stages.size(), 3u);
  auto wide = CompileToPipeline(p, {.lanes = 4, .mem_ports = 4});
  ASSERT_TRUE(wide.ok());
  EXPECT_LT(wide->blocks[0].stages.size(), plan->blocks[0].stages.size());
}

TEST(HdlCodegenTest, BranchesSplitBlocks) {
  Program p = MustAssemble(R"(
      mov r0, 0
      ldxb r3, [r1+0]
      jeq r3, 7, yes
      exit
  yes:
      mov r0, 1
      exit
  )");
  auto plan = CompileToPipeline(p);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(plan->blocks.size(), 2u);
}

TEST(HdlCodegenTest, ProfileBasedCycleEstimate) {
  Program p = MustAssemble(R"(
      mov r0, 0
      ldxb r3, [r1+0]
      jeq r3, 7, yes
      exit
  yes:
      mov r0, 1
      exit
  )");
  auto plan = CompileToPipeline(p);
  ASSERT_TRUE(plan.ok());
  MapRegistry maps;
  Vm vm(&maps);
  std::vector<uint64_t> counts(p.insns.size(), 0);
  vm.set_exec_counts(&counts);
  Bytes miss_ctx(16, 0);
  ASSERT_TRUE(vm.Run(p, MutableByteSpan(miss_ctx)).ok());
  const uint64_t miss_cycles = EstimateCycles(*plan, counts);
  std::fill(counts.begin(), counts.end(), 0);
  Bytes hit_ctx(16, 0);
  hit_ctx[0] = 7;
  ASSERT_TRUE(vm.Run(p, MutableByteSpan(hit_ctx)).ok());
  const uint64_t hit_cycles = EstimateCycles(*plan, counts);
  EXPECT_GT(miss_cycles, 0u);
  EXPECT_GT(hit_cycles, 0u);
  EXPECT_NE(miss_cycles, hit_cycles);  // different path, different block mix
}

TEST(HdlCodegenTest, HelperCallsCostHelperCycles) {
  MapRegistry maps;
  maps.Create({MapType::kHash, 4, 8, 4, "m"});
  Program p = MustAssemble(R"(
      stw [r10-4], 0
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup
      mov r0, 0
      exit
  )");
  auto cheap = CompileToPipeline(p, {.helper_cycles = 1});
  auto pricey = CompileToPipeline(p, {.helper_cycles = 32});
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(pricey.ok());
  EXPECT_GT(pricey->CriticalPathCycles(), cheap->CriticalPathCycles());
}

TEST(HdlCodegenTest, PipelineBeatsInterpreterOnParallelCode) {
  // Wide independent work: the pipeline should need far fewer cycles than
  // one-insn-per-cycle interpretation.
  Program p = MustAssemble(R"(
      ldxw r2, [r1+0]
      mov r3, 10
      mov r4, 20
      mov r5, 30
      add r3, 1
      add r4, 2
      add r5, 3
      mov r0, r2
      add r0, r3
      add r0, r4
      add r0, r5
      exit
  )");
  auto plan = CompileToPipeline(p, {.lanes = 4});
  ASSERT_TRUE(plan.ok());
  MapRegistry maps;
  Vm vm(&maps);
  std::vector<uint64_t> counts(p.insns.size(), 0);
  vm.set_exec_counts(&counts);
  Bytes ctx(16, 0);
  auto run = vm.Run(p, MutableByteSpan(ctx));
  ASSERT_TRUE(run.ok());
  const uint64_t pipeline_cycles = EstimateCycles(*plan, counts);
  EXPECT_LT(pipeline_cycles, run->insns_executed);
}

}  // namespace
}  // namespace hyperion::ebpf

namespace extended_isa {

using namespace hyperion;        // NOLINT
using namespace hyperion::ebpf;  // NOLINT

Program MustAsm(std::string_view src, uint32_t ctx = 64) {
  auto prog = Assemble(src, "ext", ctx);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return *prog;
}

TEST(ExtendedIsaTest, Be16SwapsAndTruncates) {
  Program p = MustAsm(R"(
      ld_imm64 r0, 0x11223344
      be16 r0
      exit
  )");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  // low 16 bits 0x3344 byte-swapped -> 0x4433, upper bits cleared.
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 0x4433u);
}

TEST(ExtendedIsaTest, Le32TruncatesWithoutSwap) {
  Program p = MustAsm(R"(
      ld_imm64 r0, 0x1122334455667788
      le32 r0
      exit
  )");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 0x55667788u);
}

TEST(ExtendedIsaTest, Be64FullSwap) {
  Program p = MustAsm(R"(
      ld_imm64 r0, 0x0102030405060708
      be64 r0
      exit
  )");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 0x0807060504030201ull);
}

TEST(ExtendedIsaTest, NetworkPortParseWithBe16) {
  // The canonical use: parse a big-endian port from the packet.
  Program p = MustAsm(R"(
      ldxh r0, [r1+0]
      be16 r0
      exit
  )");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  ctx[0] = 0x01;  // 0x01bb big-endian = 443
  ctx[1] = 0xbb;
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 443u);
}

TEST(ExtendedIsaTest, AtomicAddOnStackAndCtx) {
  Program p = MustAsm(R"(
      stdw [r10-8], 100
      mov r3, 5
      xadddw [r10-8], r3
      xadddw [r10-8], r3
      ldxdw r0, [r10-8]
      exit
  )");
  MapRegistry maps;
  Vm vm(&maps);
  Bytes ctx(8, 0);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 110u);
}

TEST(ExtendedIsaTest, AtomicAddOnMapValue) {
  MapRegistry maps;
  maps.Create({MapType::kArray, 4, 8, 4, "counters"});
  Program p = MustAsm(R"(
      stw [r10-4], 2          ; index 2
      ld_map_fd r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup
      jeq r0, 0, miss
      mov r3, 7
      xadddw [r0+0], r3
      ldxdw r0, [r0+0]
      exit
  miss:
      mov r0, 0
      exit
  )");
  Vm vm(&maps);
  Bytes ctx(8, 0);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 7u);
  EXPECT_EQ(vm.Run(p, MutableByteSpan(ctx))->return_value, 14u);
}

TEST(ExtendedIsaTest, VerifierAcceptsAtomicAndEndian) {
  MapRegistry maps;
  Program p = MustAsm(R"(
      ldxh r0, [r1+0]
      be16 r0
      mov r4, 1
      xaddw [r10-4], r4
      exit
  )");
  EXPECT_TRUE(Verify(p, maps).ok());
}

TEST(ExtendedIsaTest, VerifierRejectsAtomicOutOfBounds) {
  MapRegistry maps;
  Program p = MustAsm(R"(
      mov r0, 0
      mov r4, 1
      xadddw [r10-516], r4
      exit
  )");
  auto verdict = Verify(p, maps);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(std::string(verdict.status().message()).find("stack access"), std::string::npos);
}

TEST(ExtendedIsaTest, VerifierRejectsEndianOnPointer) {
  MapRegistry maps;
  Program p;
  p.name = "bad";
  p.ctx_size = 64;
  p.insns.push_back(Mov64Reg(2, 1));           // r2 = ctx pointer
  p.insns.push_back(EndianSwap(2, true, 64));  // swap a pointer?!
  p.insns.push_back(Mov64Imm(0, 0));
  p.insns.push_back(Exit());
  auto verdict = Verify(p, maps);
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(std::string(verdict.status().message()).find("non-scalar"), std::string::npos);
}

TEST(ExtendedIsaTest, DisassemblesNewOps) {
  EXPECT_EQ(Disassemble(AtomicAdd(kSizeDw, 10, -8, 3)), "xadddw [r10-8], r3");
  EXPECT_EQ(Disassemble(EndianSwap(5, true, 16)), "be16 r5");
  EXPECT_EQ(Disassemble(EndianSwap(5, false, 32)), "le32 r5");
}

}  // namespace extended_isa
