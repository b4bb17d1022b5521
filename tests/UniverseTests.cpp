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
  // The critical path (7) already exceeds the ceiling: the search fails
  // without probing.
  ClassId Goal = app(Builtin::Mul64, {v("x"), v("y")}); // Needs 7.
  Universe U = build({Goal});
  SearchOptions Opts;
  Opts.MaxCycles = 3;
  SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts,
                                 "cap");
  EXPECT_FALSE(R.Found);
  EXPECT_NE(R.Error.find("no program within 3 cycles"), std::string::npos)
      << R.Error;
  EXPECT_EQ(R.CriticalPath, 7u);
  EXPECT_TRUE(R.Probes.empty());
}

TEST_F(UniverseTest, LatencyBoundOptimum) {
  // Optimum 7 (mulq latency), which is also the critical path: the ladder
  // starts one below it, refutes K = 6 by the deadline alone, then finds 7.
  ClassId Goal = app(Builtin::Mul64, {v("x"), v("y")});
  Universe U = build({Goal});
  SearchOptions Opts;
  Opts.MaxCycles = 32;
  SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts,
                                 "mul");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 7u);
  EXPECT_EQ(R.CriticalPath, 7u);
  EXPECT_TRUE(R.LowerBoundProved);
  ASSERT_EQ(R.Probes.size(), 2u);
  EXPECT_EQ(R.Probes[0].Cycles, 6u);
  EXPECT_EQ(R.Probes[0].Result, sat::SolveResult::Unsat);
  EXPECT_EQ(R.Probes[0].Conflicts, 0u);
  EXPECT_EQ(R.Probes[1].Cycles, 7u);
  EXPECT_EQ(R.Probes[1].Result, sat::SolveResult::Sat);
}

TEST_F(UniverseTest, ZeroMinCyclesIsTreatedAsOne) {
  // Budget 0 has no cycle layer to encode, so a floor of 0 probes from
  // K = 1, on the ladder and on the fresh per-K reference alike. The goal's
  // critical path is 1, so the floor, not the bound, picks the first probe.
  ClassId Goal = app(Builtin::Add64, {v("x"), v("y")});
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
    EXPECT_EQ(R.Cycles, 1u);
    EXPECT_EQ(R.CriticalPath, 1u);
    EXPECT_FALSE(R.LowerBoundProved);
    ASSERT_EQ(R.Probes.size(), 1u);
    EXPECT_EQ(R.Probes.front().Cycles, 1u);
  }
}

//===----------------------------------------------------------------------===
// Scheduling windows and the critical-path bound, computed by hand.
//===----------------------------------------------------------------------===

/// The critical path of \p Goals on a fresh encoder.
unsigned criticalPath(const EGraph &G, const alpha::ISA &Isa,
                      const Universe &U, const std::vector<NamedGoal> &Goals,
                      const EncoderOptions &Opts = EncoderOptions()) {
  sat::Solver S;
  return Encoder(G, Isa, U, Goals, Opts, S).criticalPath();
}

TEST_F(UniverseTest, CriticalPathOfALoadFeedingAnAdd) {
  // ldq (latency 3) launches at 0 and completes by the end of cycle 2; the
  // add launches at 3, so the bound is the load latency + 1.
  ClassId Load = app(Builtin::Select, {v("M"), v("p")});
  ClassId Goal = app(Builtin::Add64, {Load, v("x")});
  Universe U = build({Goal});
  EXPECT_EQ(criticalPath(G, Isa, U, {{"res", Goal, false}}), 3u + 1u);
  EXPECT_EQ(criticalPath(G, Isa, U, {{"res", Load, false}}), 3u);
  SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}},
                                 SearchOptions(), "ldadd");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 4u);
  EXPECT_EQ(R.CriticalPath, 4u);
}

TEST_F(UniverseTest, CrossClusterOperandOpensTheWindowLater) {
  // mulq issues on U1 only (cluster 1) and completes by the end of cycle 6
  // there, one cycle later on cluster 0. An add of its result may launch at
  // 7 on a cluster-1 unit but only at 8 on a cluster-0 unit; the bound
  // takes the faster cluster.
  ClassId Goal = app(Builtin::Add64, {app(Builtin::Mul64, {v("x"), v("y")}),
                                      v("z")});
  Universe U = build({Goal});
  std::vector<NamedGoal> Goals = {{"res", Goal, false}};
  sat::Solver S;
  Encoder Enc(G, Isa, U, Goals, EncoderOptions(), S);
  EXPECT_EQ(Enc.criticalPath(), 8u);
  ASSERT_EQ(Isa.crossClusterDelay(), 1u);
  bool SawAdd = false;
  for (size_t T = 0; T < U.terms().size(); ++T) {
    const MachineTerm &MT = U.terms()[T];
    if (MT.Class != G.find(Goal))
      continue;
    SawAdd = true;
    for (machine::UnitId Un : MT.Units)
      EXPECT_EQ(Enc.earliestLaunch(static_cast<uint32_t>(T), Un),
                Isa.clusterOf(Un) == 1 ? 7u : 8u)
          << Isa.unitName(Un);
  }
  EXPECT_TRUE(SawAdd);
}

TEST_F(UniverseTest, GuardOpensBeforeGuardedLoads) {
  // Under a guard computed by a cmpult (ready at the end of cycle 0), the
  // load may launch at 1 at the earliest, so its bound grows from 3 to 4.
  ClassId Guard = app(Builtin::CmpUlt, {v("x"), v("y")});
  ClassId Load = app(Builtin::Select, {v("M"), v("p")});
  Universe U = build({Load, Guard});
  std::vector<NamedGoal> Goals = {{"res", Load, false}};
  EXPECT_EQ(criticalPath(G, Isa, U, Goals), 3u);
  EncoderOptions Guarded;
  Guarded.GuardClass = Guard;
  EXPECT_EQ(criticalPath(G, Isa, U, Goals, Guarded), 4u);

  SearchOptions Opts;
  Opts.Encoding.GuardClass = Guard;
  SearchResult R = searchBudgets(G, Isa, U, Goals, Opts, "guarded");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 4u);
  EXPECT_EQ(R.CriticalPath, 4u);
  ASSERT_FALSE(R.Program.Instrs.empty());
  for (const machine::Instruction &I : R.Program.Instrs) {
    if (I.Mnemonic == "ldq") {
      EXPECT_GE(I.Cycle, 1u);
    }
  }
}

TEST_F(UniverseTest, UnreachableGoalIsRejectedWithoutProbing) {
  // res = h + x where h's only machine form is res - x: every producer of
  // the goal waits on the goal itself, so no window ever opens.
  ir::OpId Mystery = Ctx.Ops.declareOp("mystery", 0);
  ClassId X = v("x");
  ClassId H = G.addNode(Mystery, {});
  ClassId Goal = app(Builtin::Add64, {H, X});
  G.assertEqual(H, app(Builtin::Sub64, {Goal, X}));
  G.rebuild();
  Universe U = build({Goal});
  ASSERT_FALSE(U.producersOf(G.find(Goal)).empty());
  EXPECT_EQ(criticalPath(G, Isa, U, {{"res", Goal, false}}), Encoder::Never);
  for (bool FreshPerK : {false, true}) {
    SCOPED_TRACE(FreshPerK ? "reference" : "ladder");
    SearchOptions Opts;
    Opts.FreshPerK = FreshPerK;
    SearchResult R = searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts,
                                   "cycle");
    EXPECT_FALSE(R.Found);
    EXPECT_NE(R.Error.find("no program within 24 cycles"), std::string::npos)
        << R.Error;
    EXPECT_TRUE(R.Probes.empty());
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
  // Every UNSAT probe must carry a machine-checked proof: the refutation
  // below mulq's critical path, which its deadline alone decides, and one
  // the solver has to search for.
  SearchOptions Opts;
  Opts.CertifyRefutations = true;
  ClassId Mul = app(Builtin::Mul64, {v("x"), v("y")}); // Optimum 7.
  Universe MulU = build({Mul});
  SearchResult R = searchBudgets(G, Isa, MulU, {{"res", Mul, false}}, Opts,
                                 "cert");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 7u);
  ASSERT_EQ(R.Probes.size(), 2u);
  EXPECT_EQ(R.Probes[0].Result, sat::SolveResult::Unsat);
  EXPECT_TRUE(R.Probes[0].ProofChecked);

  // Five independent adds have a critical path of 1, but four units issue
  // at most four of them in cycle 0: refuting K = 1 is a pigeonhole proof
  // that takes conflicts.
  std::vector<NamedGoal> Adds;
  std::vector<ClassId> AddClasses;
  for (unsigned I = 0; I < 5; ++I) {
    std::string N = std::to_string(I);
    AddClasses.push_back(app(Builtin::Add64, {v("a" + N), v("b" + N)}));
    Adds.push_back({"r" + N, AddClasses.back(), false});
  }
  Universe AddU = build(AddClasses);
  R = searchBudgets(G, Isa, AddU, Adds, Opts, "cert5");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 2u);
  EXPECT_EQ(R.CriticalPath, 1u);
  ASSERT_EQ(R.Probes.size(), 2u);
  EXPECT_EQ(R.Probes[0].Cycles, 1u);
  EXPECT_EQ(R.Probes[0].Result, sat::SolveResult::Unsat);
  EXPECT_GT(R.Probes[0].Conflicts, 0u);
  EXPECT_TRUE(R.Probes[0].ProofChecked);
}

} // namespace
