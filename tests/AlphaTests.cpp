//===- tests/AlphaTests.cpp - machine model & simulator tests -------------===//

#include "alpha/ISA.h"
#include "machine/Sim.h"

#include <gtest/gtest.h>

using namespace denali;
using namespace denali::alpha;
using namespace denali::machine;
using denali::ir::Builtin;

namespace {

class AlphaTest : public ::testing::Test {
protected:
  ir::Context Ctx;
  ISA Isa{Ctx};

  /// Builds an instruction computing builtin \p B.
  Instruction instr(Builtin B, std::vector<Operand> Srcs, uint32_t Dest,
                    unsigned Cycle, Unit U) {
    const InstrDesc *D = Isa.descFor(Ctx.Ops.builtin(B));
    Instruction I;
    I.Mnemonic = D->Mnemonic;
    I.Op = D->Op;
    I.Srcs = std::move(Srcs);
    I.Dest = Dest;
    I.Cycle = Cycle;
    I.IssueUnit = static_cast<machine::UnitId>(unitIndex(U));
    I.Latency = D->Latency;
    I.Mem = D->Mem;
    return I;
  }
};

//===----------------------------------------------------------------------===
// ISA tables.
//===----------------------------------------------------------------------===

TEST_F(AlphaTest, DescLookup) {
  const InstrDesc *Add = Isa.descFor(Ctx.Ops.builtin(Builtin::Add64));
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->Mnemonic, "addq");
  EXPECT_EQ(Add->UnitMask, MaskAll);
  EXPECT_EQ(Add->Latency, 1u);
  EXPECT_EQ(Isa.descFor(Ctx.Ops.builtin(Builtin::Pow)), nullptr);
  EXPECT_EQ(Isa.descFor(Ctx.Ops.builtin(Builtin::SelectB)), nullptr);
}

TEST_F(AlphaTest, UnitRestrictions) {
  EXPECT_EQ(Isa.descFor(Ctx.Ops.builtin(Builtin::Shl64))->UnitMask,
            MaskUpper);
  EXPECT_EQ(Isa.descFor(Ctx.Ops.builtin(Builtin::Mul64))->UnitMask, MaskU1);
  EXPECT_EQ(Isa.descFor(Ctx.Ops.builtin(Builtin::Select))->UnitMask,
            MaskLower);
  EXPECT_EQ(Isa.descFor(Ctx.Ops.builtin(Builtin::Extbl))->UnitMask,
            MaskUpper);
}

TEST_F(AlphaTest, Latencies) {
  EXPECT_EQ(Isa.descFor(Ctx.Ops.builtin(Builtin::Mul64))->Latency, 7u);
  EXPECT_EQ(Isa.descFor(Ctx.Ops.builtin(Builtin::Select))->Latency,
            Isa.loadHitLatency());
  EXPECT_GT(Isa.loadMissLatency(), Isa.loadHitLatency());
}

TEST_F(AlphaTest, Clusters) {
  EXPECT_EQ(clusterOf(Unit::U0), 0u);
  EXPECT_EQ(clusterOf(Unit::L0), 0u);
  EXPECT_EQ(clusterOf(Unit::U1), 1u);
  EXPECT_EQ(clusterOf(Unit::L1), 1u);
  EXPECT_EQ(Isa.crossClusterDelay(), 1u);
}

//===----------------------------------------------------------------------===
// Timing validator.
//===----------------------------------------------------------------------===

TEST_F(AlphaTest, TimingAcceptsLegalSchedule) {
  Program P;
  P.Cycles = 2;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(1)}, 1, 0,
                    Unit::U0),
              instr(Builtin::Add64, {Operand::reg(1), Operand::imm(2)}, 2, 1,
                    Unit::U0)};
  TimingReport R = validateTiming(Isa, P);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Makespan, 2u);
}

TEST_F(AlphaTest, TimingRejectsOperandNotReady) {
  Program P;
  P.Cycles = 2;
  P.Inputs = {{0, "x", false}};
  // Consumer in the same cycle as its producer: illegal.
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(1)}, 1, 0,
                    Unit::U0),
              instr(Builtin::Add64, {Operand::reg(1), Operand::imm(2)}, 2, 0,
                    Unit::U1)};
  TimingReport R = validateTiming(Isa, P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("ready"), std::string::npos);
}

TEST_F(AlphaTest, TimingEnforcesCrossClusterDelay) {
  // Producer on cluster 0 at cycle 0 (done start of 1); consumer on
  // cluster 1 can start only at cycle 2.
  Program P;
  P.Cycles = 3;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(1)}, 1, 0,
                    Unit::U0),
              instr(Builtin::Add64, {Operand::reg(1), Operand::imm(2)}, 2, 1,
                    Unit::U1)};
  TimingReport R = validateTiming(Isa, P);
  EXPECT_FALSE(R.Ok) << "cross-cluster consumer at +1 must be rejected";
  P.Instrs[1].Cycle = 2;
  R = validateTiming(Isa, P);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST_F(AlphaTest, TimingRejectsSlotConflict) {
  Program P;
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(1)}, 1, 0,
                    Unit::U0),
              instr(Builtin::Sub64, {Operand::reg(0), Operand::imm(2)}, 2, 0,
                    Unit::U0)};
  TimingReport R = validateTiming(Isa, P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("conflict"), std::string::npos);
}

TEST_F(AlphaTest, TimingRejectsIllegalUnit) {
  Program P;
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Shl64, {Operand::reg(0), Operand::imm(1)}, 1, 0,
                    Unit::L0)}; // Shifts are upper-only.
  TimingReport R = validateTiming(Isa, P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("cannot issue"), std::string::npos);
}

TEST_F(AlphaTest, TimingRejectsBudgetOverrun) {
  Program P;
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}, {1, "y", false}};
  P.Instrs = {instr(Builtin::Mul64, {Operand::reg(0), Operand::reg(1)}, 2, 0,
                    Unit::U1)}; // Latency 7 > budget 1.
  TimingReport R = validateTiming(Isa, P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("exceeds"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Functional simulator error paths.
//===----------------------------------------------------------------------===

TEST_F(AlphaTest, RunMissingInput) {
  Program P;
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  RunResult R = runProgram(Ctx, P, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("missing input"), std::string::npos);
}

TEST_F(AlphaTest, RunDetectsMissingProducer) {
  Program P;
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(42), Operand::imm(1)}, 1,
                    0, Unit::U0)};
  P.Outputs = {{"res", 1}};
  RunResult R = runProgram(Ctx, P, {{"x", ir::Value::makeInt(0)}});
  EXPECT_FALSE(R.Ok);
}

//===----------------------------------------------------------------------===
// Structured traps: the functional simulator classifies failures so the
// differential oracle can tell a garbage program from an illegal access.
//===----------------------------------------------------------------------===

TEST_F(AlphaTest, TrapUninitializedRead) {
  Program P;
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  // v42 has no writer at all: a structured uninitialized-read trap, not a
  // generic "never became ready" failure (and not an assert).
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(42), Operand::imm(1)}, 1,
                    0, Unit::U0)};
  RunResult R = runProgram(Ctx, P, {{"x", ir::Value::makeInt(0)}});
  ASSERT_FALSE(R.Ok);
  ASSERT_TRUE(R.TheTrap.has_value());
  EXPECT_EQ(R.TheTrap->TheKind, Trap::Kind::UninitializedRead);
  EXPECT_EQ(R.TheTrap->Reg, 42u);
  EXPECT_EQ(R.Error, R.TheTrap->toString());
}

TEST_F(AlphaTest, TrapOutOfBoundsLoad) {
  Program P;
  P.Cycles = 4;
  P.Inputs = {{0, "M", true}, {1, "p", false}};
  Instruction Ld = instr(Builtin::Select, {Operand::reg(0), Operand::reg(1)},
                         2, 0, Unit::L0);
  Ld.Disp = 16;
  P.Instrs = {Ld};
  P.Outputs = {{"res", 2}};
  RunOptions Opts;
  Opts.AddressLimit = 0x100;
  RunResult R = runProgram(
      Ctx, P,
      {{"M", ir::Value::makeArray(7)}, {"p", ir::Value::makeInt(0xf8)}},
      Opts);
  ASSERT_FALSE(R.Ok);
  ASSERT_TRUE(R.TheTrap.has_value());
  EXPECT_EQ(R.TheTrap->TheKind, Trap::Kind::OutOfBounds);
  EXPECT_EQ(R.TheTrap->Addr, 0x108u); // p + disp crosses the limit.

  // The same access under the limit is fine.
  RunResult Ok = runProgram(
      Ctx, P,
      {{"M", ir::Value::makeArray(7)}, {"p", ir::Value::makeInt(0x40)}},
      Opts);
  EXPECT_TRUE(Ok.Ok) << Ok.Error;
  // And with no limit the arrays-as-values fiction covers every address.
  RunResult Unlimited = runProgram(
      Ctx, P,
      {{"M", ir::Value::makeArray(7)}, {"p", ir::Value::makeInt(0xf8)}});
  EXPECT_TRUE(Unlimited.Ok) << Unlimited.Error;
}

TEST_F(AlphaTest, TrapOutOfBoundsStore) {
  Program P;
  P.Cycles = 4;
  P.Inputs = {{0, "M", true}, {1, "p", false}, {2, "x", false}};
  P.Instrs = {instr(Builtin::Store,
                    {Operand::reg(0), Operand::reg(1), Operand::reg(2)}, 3,
                    0, Unit::L0)};
  P.Outputs = {{"M", 3}};
  RunOptions Opts;
  Opts.AddressLimit = 64;
  RunResult R = runProgram(Ctx, P,
                           {{"M", ir::Value::makeArray(1)},
                            {"p", ir::Value::makeInt(64)},
                            {"x", ir::Value::makeInt(5)}},
                           Opts);
  ASSERT_FALSE(R.Ok);
  ASSERT_TRUE(R.TheTrap.has_value());
  EXPECT_EQ(R.TheTrap->TheKind, Trap::Kind::OutOfBounds);
  EXPECT_EQ(R.TheTrap->Addr, 64u);
}

TEST_F(AlphaTest, TrapKindMismatch) {
  Program P;
  P.Cycles = 4;
  P.Inputs = {{0, "x", false}, {1, "p", false}};
  // Load whose "memory" operand is an integer: a kind trap, not an assert.
  P.Instrs = {instr(Builtin::Select, {Operand::reg(0), Operand::reg(1)}, 2,
                    0, Unit::L0)};
  RunResult R = runProgram(
      Ctx, P, {{"x", ir::Value::makeInt(3)}, {"p", ir::Value::makeInt(0)}});
  ASSERT_FALSE(R.Ok);
  ASSERT_TRUE(R.TheTrap.has_value());
  EXPECT_EQ(R.TheTrap->TheKind, Trap::Kind::KindMismatch);
}

TEST_F(AlphaTest, TrapDoubleWrite) {
  Program P;
  P.Cycles = 2;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(1)}, 1,
                    0, Unit::U0),
              instr(Builtin::Sub64, {Operand::reg(0), Operand::imm(2)}, 1,
                    0, Unit::U1)};
  RunResult R = runProgram(Ctx, P, {{"x", ir::Value::makeInt(0)}});
  ASSERT_FALSE(R.Ok);
  ASSERT_TRUE(R.TheTrap.has_value());
  EXPECT_EQ(R.TheTrap->TheKind, Trap::Kind::DoubleWrite);
  EXPECT_EQ(R.TheTrap->Reg, 1u);
}

TEST_F(AlphaTest, RunOutputNeverWritten) {
  Program P;
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  P.Outputs = {{"res", 7}};
  RunResult R = runProgram(Ctx, P, {{"x", ir::Value::makeInt(0)}});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("never written"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Memory-discipline replay.
//===----------------------------------------------------------------------===

class MemoryDiscipline : public AlphaTest {
protected:
  /// Builds the canonical {store x to p; load from q} program with given
  /// cycles. Registers: 0=M, 1=p, 2=x, 3=q; 4=newM, 5=loaded.
  Program makeStoreLoad(unsigned StoreCycle, unsigned LoadCycle,
                        bool LoadFromOriginalMemory) {
    Program P;
    P.Cycles = std::max(StoreCycle, LoadCycle) + 4;
    P.Inputs = {{0, "M", true}, {1, "p", false}, {2, "x", false},
                {3, "q", false}};
    Instruction St = instr(Builtin::Store,
                           {Operand::reg(0), Operand::reg(1),
                            Operand::reg(2)},
                           4, StoreCycle, Unit::L0);
    Instruction Ld = instr(Builtin::Select,
                           {Operand::reg(LoadFromOriginalMemory ? 0u : 4u),
                            Operand::reg(3)},
                           5, LoadCycle, Unit::L1);
    P.Instrs = {St, Ld};
    P.Outputs = {{"M", 4}, {"r", 5}};
    return P;
  }

  std::unordered_map<std::string, ir::Value> inputs(uint64_t PAddr,
                                                    uint64_t QAddr) {
    return {{"M", ir::Value::makeArray(77)},
            {"p", ir::Value::makeInt(PAddr)},
            {"x", ir::Value::makeInt(4242)},
            {"q", ir::Value::makeInt(QAddr)}};
  }
};

TEST_F(MemoryDiscipline, LoadBeforeStoreIsSound) {
  // Load of the original memory scheduled before the store: fine even
  // when the addresses alias.
  Program P = makeStoreLoad(/*StoreCycle=*/3, /*LoadCycle=*/0,
                            /*LoadFromOriginalMemory=*/true);
  EXPECT_EQ(validateMemoryDiscipline(Ctx, P, inputs(100, 100)),
            std::nullopt);
}

TEST_F(MemoryDiscipline, AliasedLoadAfterStoreIsCaught) {
  // Load of the *original* memory scheduled after the store, at the same
  // address: real memory was already overwritten — the replay must flag
  // it. (The encoder's anti-dependence constraints prevent such schedules;
  // this test proves the validator would catch an encoder bug.)
  Program P = makeStoreLoad(/*StoreCycle=*/0, /*LoadCycle=*/2,
                            /*LoadFromOriginalMemory=*/true);
  auto Err = validateMemoryDiscipline(Ctx, P, inputs(100, 100));
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("promised"), std::string::npos);
}

TEST_F(MemoryDiscipline, DisjointLoadAfterStoreIsSound) {
  // Same illegal-looking order but provably different addresses: the
  // values agree, so the replay accepts (this is exactly the freedom the
  // select-store axiom grants).
  Program P = makeStoreLoad(/*StoreCycle=*/0, /*LoadCycle=*/2,
                            /*LoadFromOriginalMemory=*/true);
  EXPECT_EQ(validateMemoryDiscipline(Ctx, P, inputs(100, 108)),
            std::nullopt);
}

TEST_F(MemoryDiscipline, LoadOfNewMemoryAfterStore) {
  // Loading through the store's memory value after the store: sound, and
  // observes the stored value.
  Program P = makeStoreLoad(/*StoreCycle=*/0, /*LoadCycle=*/2,
                            /*LoadFromOriginalMemory=*/false);
  EXPECT_EQ(validateMemoryDiscipline(Ctx, P, inputs(100, 100)),
            std::nullopt);
}

TEST_F(MemoryDiscipline, NoMemoryIsTriviallySound) {
  Program P;
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(1)}, 1, 0,
                    Unit::U0)};
  EXPECT_EQ(validateMemoryDiscipline(Ctx, P,
                                     {{"x", ir::Value::makeInt(3)}}),
            std::nullopt);
}

//===----------------------------------------------------------------------===
// Assembly printing.
//===----------------------------------------------------------------------===

TEST_F(AlphaTest, PrintBasics) {
  Program P;
  P.Name = "demo";
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(5)}, 1, 0,
                    Unit::U0)};
  P.Outputs = {{"res", 1}};
  std::string S = P.toString();
  EXPECT_NE(S.find("demo:"), std::string::npos);
  EXPECT_NE(S.find("addq $16, 5, $1"), std::string::npos);
  EXPECT_NE(S.find("# 0, U0"), std::string::npos);
  EXPECT_NE(S.find("result res in $1"), std::string::npos);
}

TEST_F(AlphaTest, PrintMemoryForms) {
  Program P;
  P.Name = "mem";
  P.Cycles = 4;
  P.Inputs = {{0, "M", true}, {1, "p", false}, {2, "x", false}};
  Instruction Ld = instr(Builtin::Select, {Operand::reg(0), Operand::reg(1)},
                         3, 0, Unit::L0);
  Ld.Disp = 16;
  Instruction St = instr(Builtin::Store,
                         {Operand::reg(0), Operand::reg(1), Operand::reg(2)},
                         4, 0, Unit::L1);
  St.Disp = -8;
  P.Instrs = {Ld, St};
  std::string S = P.toString();
  // Memory inputs take $M names, so p is $16 and x is $17.
  EXPECT_NE(S.find("ldq $1, 16($16)"), std::string::npos);
  EXPECT_NE(S.find("stq $17, -8($16)"), std::string::npos);
  EXPECT_NE(S.find("$M0"), std::string::npos);
}

TEST_F(AlphaTest, PrintNopsFillSlots) {
  Program P;
  P.Name = "fillers";
  P.Cycles = 1;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(1)}, 1, 0,
                    Unit::U0)};
  std::string WithNops = P.toString(/*ShowNops=*/true);
  std::string Without = P.toString(false);
  EXPECT_NE(WithNops.find("nop"), std::string::npos);
  EXPECT_EQ(Without.find("nop"), std::string::npos);
}

TEST_F(AlphaTest, PrintManyTempsNoCollision) {
  // Temp names must never collide with input registers ($16+).
  Program P;
  P.Name = "many";
  P.Cycles = 30;
  P.Inputs = {{0, "a", false}, {1, "b", false}};
  uint32_t Reg = 2;
  for (unsigned I = 0; I < 20; ++I)
    P.Instrs.push_back(instr(Builtin::Add64,
                             {Operand::reg(0), Operand::reg(1)}, Reg++, I,
                             Unit::U0));
  std::string S = P.toString();
  // $16/$17 are inputs; a temp must not be printed as their name.
  size_t First16 = S.find("$16");
  size_t Count16 = 0;
  while (First16 != std::string::npos) {
    ++Count16;
    First16 = S.find("$16", First16 + 1);
  }
  // $16 appears once in the register map and once per instruction as a
  // source — never as a destination of a temp. 20 instrs * 1 use + banner.
  EXPECT_EQ(Count16, 21u);
}

} // namespace

namespace {

TEST_F(AlphaTest, MaxLiveRegisters) {
  // v1 = x+1 (live cycles 1..2); v2 = v1+1 (live 2..3, output).
  Program P;
  P.Cycles = 3;
  P.Inputs = {{0, "x", false}};
  P.Instrs = {instr(Builtin::Add64, {Operand::reg(0), Operand::imm(1)}, 1, 0,
                    Unit::U0),
              instr(Builtin::Add64, {Operand::reg(1), Operand::imm(1)}, 2, 1,
                    Unit::U0)};
  P.Outputs = {{"res", 2}};
  // A sequential chain recycles registers: x dies at its cycle-0 read, v1
  // at its cycle-1 read; only the output survives. Pressure is 1.
  EXPECT_GE(maxLiveRegisters(P), 1u);
  EXPECT_LE(maxLiveRegisters(P), 2u);
}

TEST_F(AlphaTest, MaxLiveExcludesMemoryRegs) {
  Program P;
  P.Cycles = 2;
  P.Inputs = {{0, "M", true}, {1, "p", false}, {2, "x", false}};
  P.Instrs = {instr(Builtin::Store,
                    {Operand::reg(0), Operand::reg(1), Operand::reg(2)}, 3,
                    0, Unit::L0)};
  P.Outputs = {{"M", 3}};
  // Only p and x are integer registers.
  EXPECT_LE(maxLiveRegisters(P), 2u);
}

TEST_F(AlphaTest, WideParallelProgramPressure) {
  // 8 parallel adds all live to the end: pressure ~ 1 input + 8 temps.
  Program P;
  P.Cycles = 4;
  P.Inputs = {{0, "x", false}};
  for (uint32_t I = 0; I < 8; ++I) {
    P.Instrs.push_back(instr(Builtin::Add64,
                             {Operand::reg(0), Operand::imm(I)}, 1 + I,
                             I / 4, unitFromIndex(I % 4)));
    P.Outputs.push_back({"r" + std::to_string(I), 1 + I});
  }
  EXPECT_GE(maxLiveRegisters(P), 8u);
}

} // namespace
