//===- tests/PortfolioTests.cpp - portfolio budget-search tests -----------===//
//
// Cross-strategy equivalence: Linear, Binary, and Portfolio must pin the
// same minimal cycle budget with the same optimality evidence, because the
// portfolio only reorders probe execution — it never changes which budgets
// count as evidence.
//
//===----------------------------------------------------------------------===//

#include "axioms/BuiltinAxioms.h"
#include "codegen/Search.h"
#include "driver/Superoptimizer.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "sat/Solver.h"
#include "verify/GmaGen.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>

using namespace denali;
using namespace denali::codegen;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

/// Same shape as the codegen PipelineTest fixture: e-graph + ISA +
/// builtin-axiom saturation, then searchBudgets under a chosen strategy.
class PortfolioTest : public ::testing::Test {
protected:
  ir::Context Ctx;
  EGraph G{Ctx};
  alpha::ISA Isa{Ctx};

  ClassId c(uint64_t V) { return G.addConst(V); }
  ClassId v(const std::string &Name) {
    return G.addNode(Ctx.Ops.makeVariable(Name), {});
  }
  ClassId app(Builtin B, std::vector<ClassId> Args) {
    return G.addNode(Ctx.Ops.builtin(B), Args);
  }

  void saturate(size_t MaxNodes = 30000) {
    const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    match::Matcher M(Axioms);
    for (match::Elaborator &E : match::standardElaborators())
      M.addElaborator(std::move(E));
    match::MatchLimits Limits;
    Limits.MaxNodes = MaxNodes;
    M.saturate(G, Limits);
    ASSERT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  }

  SearchResult search(ClassId Goal, SearchStrategy Strategy,
                      unsigned Threads = 4) {
    SearchOptions Opts;
    Opts.Strategy = Strategy;
    Opts.Threads = Threads;
    Universe U;
    std::string Err;
    EXPECT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err))
        << Err;
    return searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts, "test");
  }

  /// Runs all three strategies on \p Goal and checks they agree.
  void expectStrategiesAgree(ClassId Goal) {
    SearchResult RL = search(Goal, SearchStrategy::Linear);
    SearchResult RB = search(Goal, SearchStrategy::Binary);
    SearchResult RP = search(Goal, SearchStrategy::Portfolio);
    ASSERT_TRUE(RL.Found) << RL.Error;
    ASSERT_TRUE(RB.Found) << RB.Error;
    ASSERT_TRUE(RP.Found) << RP.Error;
    EXPECT_EQ(RP.Cycles, RL.Cycles);
    EXPECT_EQ(RB.Cycles, RL.Cycles);
    EXPECT_EQ(RP.LowerBoundProved, RL.LowerBoundProved);
  }
};

TEST_F(PortfolioTest, AgreesOnScaledAdd) {
  // reg6*4 + 1 — Figure 2's one-instruction s4addq.
  ClassId Goal = app(Builtin::Add64, {app(Builtin::Mul64, {v("reg6"), c(4)}),
                                      c(1)});
  saturate();
  expectStrategiesAgree(Goal);
}

TEST_F(PortfolioTest, AgreesOnByteswap2) {
  // Two-byte swap of the low halfword: ((x & 0xff) << 8) | ((x >> 8) & 0xff)
  // — a miniature of the byteswap4 example GMA.
  ClassId X = v("x");
  ClassId Lo = app(Builtin::Shl64, {app(Builtin::And64, {X, c(0xff)}), c(8)});
  ClassId Hi = app(Builtin::And64, {app(Builtin::Shr64, {X, c(8)}), c(0xff)});
  ClassId Goal = app(Builtin::Or64, {Lo, Hi});
  saturate();
  expectStrategiesAgree(Goal);
}

TEST_F(PortfolioTest, AgreesOnMultiCycleMix) {
  // Same goal the Binary-vs-Linear test uses: shift + xor + and.
  ClassId Goal = app(
      Builtin::Add64,
      {app(Builtin::Shl64, {v("x"), c(3)}),
       app(Builtin::Xor64, {v("y"), app(Builtin::And64, {v("x"), v("y")})})});
  saturate();
  expectStrategiesAgree(Goal);
}

TEST_F(PortfolioTest, SingleThreadDegradesGracefully) {
  ClassId Goal = app(Builtin::Add64, {v("x"), c(100000)});
  saturate();
  SearchResult RL = search(Goal, SearchStrategy::Linear);
  SearchResult RP = search(Goal, SearchStrategy::Portfolio, /*Threads=*/1);
  ASSERT_TRUE(RL.Found) << RL.Error;
  ASSERT_TRUE(RP.Found) << RP.Error;
  EXPECT_EQ(RP.Cycles, RL.Cycles);
  EXPECT_EQ(RP.LowerBoundProved, RL.LowerBoundProved);
}

TEST_F(PortfolioTest, EvidenceMatchesSequentialSemantics) {
  // x + 100000 needs a ldiq first: minimal budget 2, so the portfolio must
  // record UNSAT at K=1 (not a cancellation) to claim the lower bound.
  ClassId Goal = app(Builtin::Add64, {v("x"), c(100000)});
  saturate();
  SearchResult R = search(Goal, SearchStrategy::Portfolio);
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 2u);
  EXPECT_TRUE(R.LowerBoundProved);

  // Every budget below the answer carries real UNSAT evidence.
  bool SawUnsatBelow = false;
  for (const Probe &P : R.Probes) {
    if (P.Cycles < R.Cycles) {
      EXPECT_EQ(P.Result, sat::SolveResult::Unsat)
          << "budget " << P.Cycles << " below the answer must be UNSAT";
      EXPECT_FALSE(P.Cancelled);
      SawUnsatBelow = true;
    }
    if (P.Cancelled) {
      EXPECT_GT(P.Cycles, R.Cycles);
      EXPECT_EQ(P.Result, sat::SolveResult::Unknown);
    }
  }
  EXPECT_TRUE(SawUnsatBelow);

  // The winning probe is recorded and is the SAT answer at the minimum.
  ASSERT_GE(R.WinningProbe, 0);
  ASSERT_LT(static_cast<size_t>(R.WinningProbe), R.Probes.size());
  EXPECT_EQ(R.Probes[R.WinningProbe].Result, sat::SolveResult::Sat);
  EXPECT_EQ(R.Probes[R.WinningProbe].Cycles, R.Cycles);
  EXPECT_EQ(R.CancelledProbes,
            static_cast<size_t>(std::count_if(
                R.Probes.begin(), R.Probes.end(),
                [](const Probe &P) { return P.Cancelled; })));
  EXPECT_GT(R.WallSeconds, 0.0);
  EXPECT_GE(R.CpuSeconds, 0.0);
}

TEST_F(PortfolioTest, CancellationIsObservableAndBounded) {
  // A losing worker must wind down promptly once the winner cancels it: the
  // solver polls its interrupt flag at every conflict/decision/restart
  // boundary, so a cancelled probe may complete at most one further
  // conflict after the request. The probe also carries the wall-clock
  // cancellation latency when the portfolio recorded the request time.
  ClassId Goal = app(
      Builtin::Add64,
      {app(Builtin::Shl64, {v("x"), c(3)}),
       app(Builtin::Xor64, {v("y"), app(Builtin::And64, {v("x"), v("y")})})});
  saturate();

  size_t CancelledSeen = 0;
  for (int Attempt = 0; Attempt < 8 && !CancelledSeen; ++Attempt) {
    SearchResult R = search(Goal, SearchStrategy::Portfolio);
    ASSERT_TRUE(R.Found) << R.Error;
    for (const Probe &P : R.Probes) {
      if (!P.Cancelled)
        continue;
      ++CancelledSeen;
      // The conflict bound is structural (poll placement), not timing.
      EXPECT_LE(P.ConflictsAfterCancel, 1u)
          << "budget " << P.Cycles << " kept working after cancellation";
      if (P.CancelLatencySeconds >= 0)
        EXPECT_LT(P.CancelLatencySeconds, R.WallSeconds + 1.0)
            << "budget " << P.Cycles;
    }
  }
  // Whether a probe gets cancelled is a race (fast probes may finish
  // first); over several attempts at least one should lose. Don't fail a
  // fast machine, but do exercise the assertions when we can.
  if (!CancelledSeen)
    GTEST_LOG_(WARNING) << "no probe was cancelled in any attempt; "
                           "bound not exercised";
}

TEST(SolverInterrupt, PreSetInterruptStopsBeforeAnyConflict) {
  // With the flag already raised, the very first poll observes it: the
  // solve must return Unknown with zero post-interrupt conflicts — the
  // deterministic anchor for the ≤1 bound asserted above.
  sat::Solver S;
  std::mt19937_64 Rng(7);
  constexpr int NumVars = 40;
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  for (int I = 0; I < 120; ++I) {
    sat::ClauseLits C;
    for (int J = 0; J < 3; ++J)
      C.push_back(
          sat::Lit(static_cast<sat::Var>(Rng() % NumVars), Rng() & 1));
    S.addClause(C);
  }
  std::atomic<bool> Stop{true};
  S.setInterrupt(&Stop);
  EXPECT_EQ(S.solve(), sat::SolveResult::Unknown);
  EXPECT_TRUE(S.interrupted());
  EXPECT_EQ(S.conflictsAfterInterrupt(), 0u);

  // Lowering the flag lets the same solver finish normally.
  Stop.store(false);
  EXPECT_NE(S.solve(), sat::SolveResult::Unknown);
  EXPECT_FALSE(S.interrupted());
}

TEST_F(PortfolioTest, FreeGoalSkipsThePool) {
  ClassId Goal = v("x");
  saturate();
  SearchResult R = search(Goal, SearchStrategy::Portfolio);
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 0u);
  EXPECT_TRUE(R.Program.Instrs.empty());
}

//===----------------------------------------------------------------------===
// Driver-level equivalence on goal terms (the library entry point the
// example programs use).
//===----------------------------------------------------------------------===

SearchResult compileWith(SearchStrategy Strategy) {
  driver::Options Opts;
  Opts.Search.Strategy = Strategy;
  Opts.Search.Threads = 4;
  Opts.Search.MaxCycles = 12;
  driver::Superoptimizer Opt(Opts);
  ir::Context &Ctx = Opt.context();
  // (x*8 + y) ^ 0x5a — shift-add plus a literal xor.
  ir::TermId X = Ctx.Terms.makeVar("x");
  ir::TermId Y = Ctx.Terms.makeVar("y");
  ir::TermId Mul = Ctx.Terms.makeBuiltin(Builtin::Mul64,
                                         {X, Ctx.Terms.makeConst(8)});
  ir::TermId Sum = Ctx.Terms.makeBuiltin(Builtin::Add64, {Mul, Y});
  ir::TermId Goal = Ctx.Terms.makeBuiltin(Builtin::Xor64,
                                          {Sum, Ctx.Terms.makeConst(0x5a)});
  driver::GmaResult R = Opt.compileGoals("mix", {{"res", Goal}});
  EXPECT_TRUE(R.ok()) << R.Error << R.Search.Error;
  return R.Search;
}

TEST(PortfolioDriver, StrategiesAgreeOnGoalTerms) {
  SearchResult RL = compileWith(SearchStrategy::Linear);
  SearchResult RB = compileWith(SearchStrategy::Binary);
  SearchResult RP = compileWith(SearchStrategy::Portfolio);
  ASSERT_TRUE(RL.Found && RB.Found && RP.Found);
  EXPECT_EQ(RP.Cycles, RL.Cycles);
  EXPECT_EQ(RB.Cycles, RL.Cycles);
  EXPECT_EQ(RP.LowerBoundProved, RL.LowerBoundProved);
}

//===----------------------------------------------------------------------===
// Differential GmaGen fuzzing: concurrent probe execution must not change
// the minimal K or the oracle verdict on seeded random GMAs (the seeds
// incremental_tests' generated slices start from — the two suites together
// pin all three strategies to one answer per seed).
//===----------------------------------------------------------------------===

class PortfolioDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(PortfolioDifferential, AgreesWithLinearOnGeneratedGmas) {
  driver::Superoptimizer Opt;
  Opt.options().Search.MaxCycles = 12;
  Opt.options().Search.Threads = 4;
  Opt.options().Matching.MaxNodes = 8000;
  Opt.options().Matching.MaxRounds = 8;

  verify::GmaGen Gen(Opt.context(), 1000 + GetParam());
  for (unsigned I = 0; I < 3; ++I) {
    gma::GMA G = Gen.next();
    SCOPED_TRACE(G.toString(Opt.context()));
    auto Err = verify::crossCheckStrategies(
        Opt, G,
        {codegen::SearchStrategy::Linear,
         codegen::SearchStrategy::Portfolio});
    EXPECT_FALSE(Err) << *Err;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioDifferential,
                         ::testing::Range(0u, 6u));

} // namespace
