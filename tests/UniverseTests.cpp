//===- tests/UniverseTests.cpp - encoding-universe unit tests -------------===//

#include "codegen/Search.h"
#include "codegen/Universe.h"

#include "alpha/ISA.h"

#include <gtest/gtest.h>

using namespace denali;
using namespace denali::codegen;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

class UniverseTest : public ::testing::Test {
protected:
  ir::Context Ctx;
  alpha::ISA Isa{Ctx};
  EGraph G{Ctx};

  ClassId c(uint64_t V) { return G.addConst(V); }
  ClassId v(const std::string &N) {
    return G.addNode(Ctx.Ops.makeVariable(N), {});
  }
  ClassId app(Builtin B, std::vector<ClassId> Args) {
    return G.addNode(Ctx.Ops.builtin(B), Args);
  }

  Universe build(std::vector<ClassId> Goals,
                 UniverseOptions Opts = UniverseOptions()) {
    Universe U;
    std::string Err;
    EXPECT_TRUE(U.build(G, Isa, Goals, Opts, &Err)) << Err;
    return U;
  }

  /// Terms in \p U computing class \p C.
  std::vector<const MachineTerm *> producers(const Universe &U, ClassId C) {
    std::vector<const MachineTerm *> Out;
    for (size_t I : U.producersOf(G.find(C)))
      Out.push_back(&U.terms()[I]);
    return Out;
  }
};

TEST_F(UniverseTest, VariablesAreFreeInputs) {
  ClassId X = v("x");
  ClassId Goal = app(Builtin::Add64, {X, v("y")});
  Universe U = build({Goal});
  EXPECT_TRUE(U.isFree(G.find(X)));
  EXPECT_EQ(U.inputs().size(), 2u);
  EXPECT_FALSE(U.isFree(G.find(Goal)));
}

TEST_F(UniverseTest, ZeroIsFreeOtherConstantsGetLdiq) {
  ClassId Goal = app(Builtin::Add64, {v("x"), c(0)});
  ClassId Goal2 = app(Builtin::Sub64, {c(1000), v("x")});
  Universe U = build({Goal, Goal2});
  EXPECT_TRUE(U.isFree(G.find(c(0))));
  auto Prods = producers(U, c(1000));
  ASSERT_EQ(Prods.size(), 1u);
  EXPECT_TRUE(Prods[0]->IsLdiq);
  EXPECT_EQ(Prods[0]->ConstVal, 1000u);
}

TEST_F(UniverseTest, ConstantGoalGetsLdiqEvenForZero) {
  ClassId Zero = c(0);
  Universe U = build({Zero});
  EXPECT_FALSE(U.isFree(G.find(Zero)));
  ASSERT_EQ(producers(U, Zero).size(), 1u);
  EXPECT_TRUE(producers(U, Zero)[0]->IsLdiq);
}

TEST_F(UniverseTest, ConeRestriction) {
  // Unreachable classes contribute no machine terms.
  ClassId Goal = app(Builtin::Add64, {v("x"), v("y")});
  app(Builtin::Mul64, {v("p"), v("q")}); // Unrelated.
  Universe U = build({Goal});
  for (const MachineTerm &T : U.terms())
    EXPECT_NE(T.Desc->Mnemonic, "mulq");
}

TEST_F(UniverseTest, NonSpineStoresExcluded) {
  // A store reachable only as a *value* (not part of the goal memory
  // chain) must not become an executable candidate.
  ClassId MVar = v("M");
  ClassId P = v("p");
  ClassId GoalStore = app(Builtin::Store, {MVar, P, v("x")});
  // Another store term reachable via nothing (not a goal).
  ClassId Rogue = app(Builtin::Store, {MVar, app(Builtin::Add64, {P, c(64)}),
                                       v("y")});
  (void)Rogue;
  Universe U = build({GoalStore});
  unsigned Stores = 0;
  for (const MachineTerm &T : U.terms())
    Stores += T.IsStore && !T.HasDisp;
  EXPECT_EQ(Stores, 1u); // Only the goal-chain store.
}

TEST_F(UniverseTest, DisplacementVariantsForLoads) {
  ClassId Goal =
      app(Builtin::Select, {v("M"), app(Builtin::Add64, {v("p"), c(24)})});
  Universe U = build({Goal});
  bool SawPlain = false, SawDisp = false;
  for (const MachineTerm &T : U.terms()) {
    if (!T.IsLoad)
      continue;
    SawPlain |= !T.HasDisp;
    if (T.HasDisp) {
      SawDisp = true;
      EXPECT_EQ(T.Disp, 24);
    }
  }
  EXPECT_TRUE(SawPlain);
  EXPECT_TRUE(SawDisp);
}

TEST_F(UniverseTest, DisplacementRangeRespected) {
  ClassId Goal = app(
      Builtin::Select, {v("M"), app(Builtin::Add64, {v("p"), c(1 << 20)})});
  Universe U = build({Goal});
  for (const MachineTerm &T : U.terms())
    if (T.IsLoad) {
      EXPECT_FALSE(T.HasDisp) << "2^20 exceeds the 16-bit displacement";
    }
}

TEST_F(UniverseTest, MissLatencyApplied) {
  ClassId Addr = v("p");
  ClassId Goal = app(Builtin::Select, {v("M"), Addr});
  UniverseOptions Opts;
  Opts.LoadLatencyByAddr[G.find(Addr)] = 13;
  Universe U = build({Goal}, Opts);
  for (const MachineTerm &T : U.terms())
    if (T.IsLoad) {
      EXPECT_EQ(T.Latency, 13u);
    }
}

TEST_F(UniverseTest, ImmOperandRules) {
  ClassId Small = c(7);
  ClassId Large = c(1000);
  const alpha::InstrDesc *Add = Isa.descFor(Ctx.Ops.builtin(Builtin::Add64));
  const alpha::InstrDesc *Cmov =
      Isa.descFor(Ctx.Ops.builtin(Builtin::CmovEq));
  const alpha::InstrDesc *Ldq = Isa.descFor(Ctx.Ops.builtin(Builtin::Select));
  Universe U = build({app(Builtin::Add64, {v("x"), Small})});
  // addq: literal slot is the last operand only.
  EXPECT_TRUE(U.isImmOperand(G, *Add, 1, 2, Small));
  EXPECT_FALSE(U.isImmOperand(G, *Add, 0, 2, Small));
  EXPECT_FALSE(U.isImmOperand(G, *Add, 1, 2, Large));
  EXPECT_FALSE(U.isImmOperand(G, *Add, 1, 2, v("x")));
  // cmov: the literal rides the middle (value) operand.
  EXPECT_TRUE(U.isImmOperand(G, *Cmov, 1, 3, Small));
  EXPECT_FALSE(U.isImmOperand(G, *Cmov, 2, 3, Small));
  // Loads take no literals.
  EXPECT_FALSE(U.isImmOperand(G, *Ldq, 1, 2, Small));
}

TEST_F(UniverseTest, MemoryInputFlagged) {
  ClassId Goal = app(Builtin::Select, {v("M"), v("p")});
  Universe U = build({Goal});
  bool SawMemory = false;
  for (const Universe::InputInfo &In : U.inputs()) {
    if (In.Name == "M")
      SawMemory = In.IsMemory;
    if (In.Name == "p") {
      EXPECT_FALSE(In.IsMemory);
    }
  }
  EXPECT_TRUE(SawMemory);
}

TEST_F(UniverseTest, GoalWithoutProducersFails) {
  ir::OpId Mystery = Ctx.Ops.declareOp("mystery", 0);
  ClassId Goal = G.addNode(Mystery, {});
  Universe U;
  std::string Err;
  EXPECT_FALSE(U.build(G, Isa, {Goal}, UniverseOptions(), &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===
// Search edge cases.
//===----------------------------------------------------------------------===

TEST_F(UniverseTest, SearchRespectsMinCycles) {
  ClassId Goal = app(Builtin::Add64, {v("x"), v("y")});
  Universe U = build({Goal});
  SearchOptions Opts;
  Opts.MinCycles = 3; // Start probing above the true optimum.
  SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts,
                                 "min");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 3u);
  EXPECT_FALSE(R.LowerBoundProved); // MinCycles was feasible immediately.
}

TEST_F(UniverseTest, SearchMaxCyclesTooSmall) {
  ClassId Goal = app(Builtin::Mul64, {v("x"), v("y")}); // Needs 7.
  Universe U = build({Goal});
  SearchOptions Opts;
  Opts.MaxCycles = 3;
  SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts,
                                 "cap");
  EXPECT_FALSE(R.Found);
  EXPECT_NE(R.Error.find("no program within"), std::string::npos);
  EXPECT_EQ(R.Probes.size(), 3u); // K = 1, 2, 3 all refuted.
  for (const Probe &P : R.Probes)
    EXPECT_EQ(P.Result, sat::SolveResult::Unsat);
}

TEST_F(UniverseTest, LatencyBoundOptimum) {
  // Optimum 7 (mulq latency): the ladder refutes K = 1..6, then finds it.
  ClassId Goal = app(Builtin::Mul64, {v("x"), v("y")});
  Universe U = build({Goal});
  SearchOptions Opts;
  Opts.MaxCycles = 32;
  SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts,
                                 "mul");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 7u);
  EXPECT_TRUE(R.LowerBoundProved);
  EXPECT_EQ(R.Probes.size(), 7u);
}

TEST_F(UniverseTest, ZeroMinCyclesIsTreatedAsOne) {
  // Budget 0 has no cycle layer to encode, so a floor of 0 probes from
  // K = 1, on the ladder and on the fresh per-K reference alike.
  ClassId Goal = app(Builtin::Mul64, {v("x"), v("y")});
  Universe U = build({Goal});
  for (bool FreshPerK : {false, true}) {
    SCOPED_TRACE(FreshPerK ? "reference" : "ladder");
    SearchOptions Opts;
    Opts.MinCycles = 0;
    Opts.MaxCycles = 32;
    Opts.FreshPerK = FreshPerK;
    SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts,
                                   "floor");
    ASSERT_TRUE(R.Found) << R.Error;
    EXPECT_EQ(R.Cycles, 7u);
    EXPECT_TRUE(R.LowerBoundProved);
    ASSERT_EQ(R.Probes.size(), 7u);
    EXPECT_EQ(R.Probes.front().Cycles, 1u);
  }
}

TEST_F(UniverseTest, MultipleGoalsShareSubterms) {
  // r1 = x + y, r2 = (x + y) << 1: the shared sum is computed once and the
  // schedule honors both outputs.
  ClassId Sum = app(Builtin::Add64, {v("x"), v("y")});
  ClassId Shifted = app(Builtin::Shl64, {Sum, c(1)});
  Universe U = build({Sum, Shifted});
  SearchOptions Opts;
  SearchResult R = searchBudgets(
      G, Isa, U, {{"r1", Sum, false}, {"r2", Shifted, false}}, Opts, "multi");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 2u);
  EXPECT_EQ(R.Program.Outputs.size(), 2u);
}

} // namespace

namespace {

TEST_F(UniverseTest, CertifiedRefutations) {
  // byteswap-style goal whose optimum needs probing: every UNSAT probe
  // must carry a machine-checked proof.
  ClassId Goal = app(Builtin::Mul64, {v("x"), v("y")}); // Optimum 7.
  Universe U = build({Goal});
  SearchOptions Opts;
  Opts.CertifyRefutations = true;
  SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts,
                                 "cert");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 7u);
  unsigned CertifiedRefutations = 0;
  for (const Probe &P : R.Probes) {
    if (P.Result != sat::SolveResult::Unsat)
      continue;
    EXPECT_TRUE(P.ProofChecked) << "K=" << P.Cycles;
    ++CertifiedRefutations;
  }
  EXPECT_EQ(CertifiedRefutations, 6u); // K = 1..6 all certified impossible.
}

} // namespace
