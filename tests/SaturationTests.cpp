//===- tests/SaturationTests.cpp - rebuild modes, scheduling, semi-naive --===//
//
// Contract tests for the saturation scaling machinery (deferred rebuilding,
// rule scheduling, semi-naive matching):
//
//  * eager and deferred rebuilding close every graph identically — same
//    class partition over the seed roots, same node/class counts, same
//    egg-style extraction cost (the graphs differ only in class numbering,
//    so extracted *terms* may pick different equal-cost representatives);
//  * the same seeds saturate to the same graph on every run, statistics
//    and extracted terms included;
//  * match budgets overflow, sit a round out, double, and still reach the
//    unbudgeted closure; phased rule sets advance and reach the unphased
//    closure; a substitution found twice in one round is queued once; a
//    budget or the per-round instance cap bounds a trigger's whole root
//    list, not slices of it;
//  * a semi-naive round reaches the graph a fresh full scan reaches;
//  * every round's class scans, read off the operator views, see exactly
//    the members a filtered scan of the whole class sees;
//  * rebuild's congruence cascade is worklist-driven, so pathologically
//    deep parent chains cannot overflow the stack in either mode.
//
// Equivalence runs are rounds-bounded with non-binding node/instance caps:
// a binding cap stops the modes at different frontiers (the deferred arm's
// end-of-round rebuild shrinks the live count back under the cap where the
// eager arm breaks mid-batch), which compares different total work — see
// bench_egraph_scale.cpp for the same regime at stress scale.
//
//===----------------------------------------------------------------------===//

#include "axioms/BuiltinAxioms.h"
#include "egraph/EGraph.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "sexpr/Parser.h"
#include "support/StringExtras.h"
#include "verify/EGraphInvariants.h"
#include "verify/GmaGen.h"

#include "BenchUtil.h"
#include "alpha/ISA.h"
#include "baseline/EGraphExtract.h"
#include "gma/GMA.h"
#include "lang/Surface.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_map>

using namespace denali;
using denali::egraph::ClassId;
using denali::ir::Builtin;

namespace {

/// The Figure 3/4 byteswap store chain — the densest clause generator
/// among the builtin axioms (select-over-store case splits).
ir::TermId swapChain(ir::Context &Ctx, unsigned N) {
  ir::TermId A = Ctx.Terms.makeVar("a");
  ir::TermId R = Ctx.Terms.makeConst(0);
  for (unsigned I = 0; I < N; ++I)
    R = Ctx.Terms.makeBuiltin(
        Builtin::StoreB,
        {R, Ctx.Terms.makeConst(I),
         Ctx.Terms.makeBuiltin(Builtin::SelectB,
                               {A, Ctx.Terms.makeConst(N - 1 - I)})});
  return R;
}

/// A small GmaGen corpus plus a byteswap chain, loaded into one graph —
/// the bench_egraph_scale stress mix at unit-test scale.
std::vector<ir::TermId> stressSeeds(ir::Context &Ctx, unsigned Seed) {
  verify::GmaGenOptions GO;
  GO.MaxTargets = 2;
  GO.MaxDepth = 3;
  verify::GmaGen Gen(Ctx, Seed, GO);
  std::vector<ir::TermId> Seeds;
  for (unsigned I = 0; I < 2; ++I) {
    gma::GMA G = Gen.next();
    for (ir::TermId V : G.NewVals)
      Seeds.push_back(V);
    if (G.Guard)
      Seeds.push_back(*G.Guard);
  }
  Seeds.push_back(swapChain(Ctx, 3));
  return Seeds;
}

/// The paper's Figure 2 goal, reg6*4 + 1: small, and its builtin closure
/// quiesces under the default limits (SaturationTest.Figure2Alternatives),
/// which the budget/phase convergence tests need.
std::vector<ir::TermId> figure2Seeds(ir::Context &Ctx) {
  ir::TermId Mul = Ctx.Terms.makeBuiltin(
      Builtin::Mul64, {Ctx.Terms.makeVar("reg6"), Ctx.Terms.makeConst(4)});
  return {Ctx.Terms.makeBuiltin(Builtin::Add64,
                                {Mul, Ctx.Terms.makeConst(1)})};
}

/// Figure-2-style goals over distinct variables, k * 2**n feeding an add
/// (the E20 input): a finite builtin closure, like figure2Seeds, but with
/// enough alike nodes that a budget of 2 raw matches per axiom-round
/// overflows.
std::vector<ir::TermId> figure2Groups(ir::Context &Ctx, unsigned Groups) {
  std::vector<ir::TermId> Seeds;
  for (unsigned I = 0; I < Groups; ++I) {
    ir::TermId V = Ctx.Terms.makeVar(strFormat("x%u", I));
    ir::TermId Mul = Ctx.Terms.makeBuiltin(
        Builtin::Mul64, {V, Ctx.Terms.makeConst(I % 2 ? 8 : 4)});
    Seeds.push_back(Ctx.Terms.makeBuiltin(
        Builtin::Add64, {Mul, Ctx.Terms.makeConst(1 + I % 3)}));
  }
  return Seeds;
}

/// Parses one axiom over \p Ctx's operators.
match::Axiom parseTestAxiom(ir::Context &Ctx, const char *Text) {
  sexpr::ParseResult R = sexpr::parseOne(Text);
  EXPECT_TRUE(R.ok());
  std::string Err;
  std::optional<match::Axiom> A = match::parseAxiom(Ctx, R.Forms[0], &Err);
  EXPECT_TRUE(A.has_value()) << Err;
  return A.value();
}

/// Rounds-bounded limits with non-binding size caps (see file header).
match::MatchLimits roundsBounded(unsigned Rounds) {
  match::MatchLimits L;
  L.MaxRounds = Rounds;
  L.MaxNodes = 1u << 20;
  L.MaxInstancesPerRound = 1u << 20;
  return L;
}

/// One saturation arm: stats, the partition of the seed roots (index of
/// the first equal earlier root), invariants, and the extraction result
/// per root.
struct SatRun {
  match::MatchStats Stats;
  std::vector<unsigned> Partition;
  bool Inconsistent = false;
  bool InvariantsOk = false;
  std::string InvariantsMsg;
  std::vector<long long> ExtractCosts; ///< -1 = no machine-op term.
  std::vector<std::string> ExtractTerms; ///< Empty = no machine-op term.
};

SatRun runSat(ir::Context &Ctx, const std::vector<ir::TermId> &Seeds,
              const match::MatchLimits &Limits) {
  egraph::EGraph G(Ctx);
  std::vector<ClassId> Roots;
  Roots.reserve(Seeds.size());
  for (ir::TermId T : Seeds)
    Roots.push_back(G.addTerm(T));
  const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  match::Matcher M(Axioms);
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));

  SatRun R;
  R.Stats = M.saturate(G, Limits);
  R.Inconsistent = G.isInconsistent();
  R.Partition.assign(Roots.size(), 0);
  for (size_t I = 0; I < Roots.size(); ++I) {
    R.Partition[I] = static_cast<unsigned>(I);
    for (size_t J = 0; J < I; ++J)
      if (G.sameClass(Roots[I], Roots[J])) {
        R.Partition[I] = static_cast<unsigned>(J);
        break;
      }
  }
  verify::InvariantReport Rep = verify::checkEGraphInvariants(G);
  R.InvariantsOk = Rep.Ok;
  R.InvariantsMsg = Rep.toString();
  alpha::ISA Isa(Ctx);
  for (ClassId Root : Roots) {
    std::optional<baseline::ExtractResult> Ex =
        baseline::extractBestTerm(G, Isa, Root);
    R.ExtractCosts.push_back(Ex ? static_cast<long long>(Ex->Cost) : -1);
    R.ExtractTerms.push_back(Ex ? Ctx.Terms.toString(Ex->Term) : "");
  }
  return R;
}

/// Every field of MatchStats but the wall-time ones.
void expectStatsIdentical(const match::MatchStats &A,
                          const match::MatchStats &B) {
  EXPECT_EQ(A.Rounds, B.Rounds);
  EXPECT_EQ(A.MatchesFound, B.MatchesFound);
  EXPECT_EQ(A.InstancesDeduped, B.InstancesDeduped);
  EXPECT_EQ(A.InstancesAsserted, B.InstancesAsserted);
  EXPECT_EQ(A.FinalNodes, B.FinalNodes);
  EXPECT_EQ(A.FinalClasses, B.FinalClasses);
  EXPECT_EQ(A.Quiesced, B.Quiesced);
  EXPECT_EQ(A.BudgetOverflows, B.BudgetOverflows);
  EXPECT_EQ(A.BudgetSkips, B.BudgetSkips);
  EXPECT_EQ(A.PhaseAdvances, B.PhaseAdvances);
  EXPECT_EQ(A.Merges, B.Merges);
  EXPECT_EQ(A.CongruenceMerges, B.CongruenceMerges);
  EXPECT_EQ(A.ConstantFolds, B.ConstantFolds);
  EXPECT_EQ(A.Rebuilds, B.Rebuilds);
  EXPECT_EQ(A.AdaptiveSeeded, B.AdaptiveSeeded);
  EXPECT_EQ(A.AdaptiveDemoted, B.AdaptiveDemoted);
  // Per-axiom attribution: every field except the *Ns pair is
  // deterministic.
  ASSERT_EQ(A.PerAxiom.size(), B.PerAxiom.size());
  for (size_t I = 0; I < A.PerAxiom.size(); ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(A.PerAxiom[I].Raw, B.PerAxiom[I].Raw);
    EXPECT_EQ(A.PerAxiom[I].Instances, B.PerAxiom[I].Instances);
    EXPECT_EQ(A.PerAxiom[I].Merges, B.PerAxiom[I].Merges);
    EXPECT_EQ(A.PerAxiom[I].Overflows, B.PerAxiom[I].Overflows);
    EXPECT_EQ(A.PerAxiom[I].Skips, B.PerAxiom[I].Skips);
    EXPECT_EQ(A.PerAxiom[I].FirstRound, B.PerAxiom[I].FirstRound);
    EXPECT_EQ(A.PerAxiom[I].LastRound, B.PerAxiom[I].LastRound);
  }
}

//===----------------------------------------------------------------------===
// Eager vs deferred rebuilding: same closure.
//===----------------------------------------------------------------------===

class EagerDeferredEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(EagerDeferredEquivalence, SameClosure) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = stressSeeds(Ctx, GetParam());

  match::MatchLimits Deferred = roundsBounded(3);
  match::MatchLimits Eager = Deferred;
  Eager.EagerRebuild = true;

  SatRun D = runSat(Ctx, Seeds, Deferred);
  SatRun E = runSat(Ctx, Seeds, Eager);
  ASSERT_FALSE(D.Inconsistent);
  ASSERT_FALSE(E.Inconsistent);
  EXPECT_TRUE(D.InvariantsOk) << D.InvariantsMsg;
  EXPECT_TRUE(E.InvariantsOk) << E.InvariantsMsg;

  EXPECT_EQ(E.Partition, D.Partition);
  EXPECT_EQ(E.Stats.FinalNodes, D.Stats.FinalNodes);
  EXPECT_EQ(E.Stats.FinalClasses, D.Stats.FinalClasses);
  // Raw match counts are not compared: the arms unite classes in
  // different orders, and what a semi-naive round enumerates depends on it.
  // The closures are equal mod class renaming, so extraction must find
  // the same best cost per root (ties may break to different terms).
  EXPECT_EQ(E.ExtractCosts, D.ExtractCosts);
  // Deferred batches the per-assert repair cascades into one rebuild per
  // round, so it must run strictly fewer rebuild passes.
  EXPECT_LT(D.Stats.Rebuilds, E.Stats.Rebuilds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EagerDeferredEquivalence,
                         ::testing::Range(0u, 6u));

//===----------------------------------------------------------------------===
// Determinism: the same seeds saturate to the same graph on every run.
//===----------------------------------------------------------------------===

class RunDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(RunDeterminism, BitIdenticalAcrossRuns) {
  // Goldens and the compile server's cached results rely on saturation
  // being a function of its input: every run queues the same instances in
  // the same order. Two runs, each in a fresh context and so over fresh
  // allocations, must agree on every statistic, on the partition of the
  // roots, and on the extracted terms, tie-breaks included.
  auto run = [this](ir::Context &Ctx) {
    return runSat(Ctx, stressSeeds(Ctx, GetParam() + 50), roundsBounded(3));
  };
  ir::Context CtxA, CtxB;
  SatRun A = run(CtxA);
  SatRun B = run(CtxB);
  ASSERT_FALSE(A.Inconsistent);
  EXPECT_TRUE(A.InvariantsOk) << A.InvariantsMsg;
  EXPECT_GT(A.Stats.InstancesAsserted, 0u);
  expectStatsIdentical(A.Stats, B.Stats);
  EXPECT_EQ(A.Partition, B.Partition);
  EXPECT_EQ(A.ExtractCosts, B.ExtractCosts);
  EXPECT_EQ(A.ExtractTerms, B.ExtractTerms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunDeterminism, ::testing::Range(0u, 4u));

//===----------------------------------------------------------------------===
// Rule scheduling: budgets, phases, same-round dedup.
//===----------------------------------------------------------------------===

TEST(SaturationSchedule, BudgetBackoffReachesUnbudgetedClosure) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = figure2Groups(Ctx, 4);

  SatRun Plain = runSat(Ctx, Seeds, match::MatchLimits());
  ASSERT_TRUE(Plain.Stats.Quiesced);
  EXPECT_EQ(Plain.Stats.BudgetOverflows, 0u);
  EXPECT_EQ(Plain.Stats.BudgetSkips, 0u);

  // A budget of 2 raw matches per axiom-round truncates immediately;
  // backoff doubles it until every axiom fits, after which the run must
  // still quiesce — to the same closure, just over more rounds.
  match::MatchLimits Budgeted;
  Budgeted.MatchBudget = 2;
  Budgeted.MaxRounds = 200;
  SatRun B = runSat(Ctx, Seeds, Budgeted);
  EXPECT_TRUE(B.Stats.Quiesced);
  EXPECT_GT(B.Stats.BudgetOverflows, 0u);
  EXPECT_GT(B.Stats.BudgetSkips, 0u);
  EXPECT_GT(B.Stats.Rounds, Plain.Stats.Rounds);
  EXPECT_EQ(B.Stats.FinalNodes, Plain.Stats.FinalNodes);
  EXPECT_EQ(B.Stats.FinalClasses, Plain.Stats.FinalClasses);
  EXPECT_TRUE(B.InvariantsOk) << B.InvariantsMsg;
  EXPECT_EQ(B.ExtractCosts, Plain.ExtractCosts);
}

TEST(SaturationSchedule, PhasedReachesUnphasedClosure) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = figure2Seeds(Ctx);

  SatRun Plain = runSat(Ctx, Seeds, match::MatchLimits());
  ASSERT_TRUE(Plain.Stats.Quiesced);
  EXPECT_EQ(Plain.Stats.PhaseAdvances, 0u);

  // Phase 0 (cheap simplifications) must quiesce, the phase widen at
  // least once (the k*x decompositions are phase 1), and the final
  // closure match the unphased run.
  match::MatchLimits Phased;
  Phased.Phased = true;
  Phased.MaxRounds = 64;
  SatRun P = runSat(Ctx, Seeds, Phased);
  EXPECT_TRUE(P.Stats.Quiesced);
  EXPECT_GE(P.Stats.PhaseAdvances, 1u);
  EXPECT_EQ(P.Stats.FinalNodes, Plain.Stats.FinalNodes);
  EXPECT_EQ(P.Stats.FinalClasses, Plain.Stats.FinalClasses);
  EXPECT_TRUE(P.InvariantsOk) << P.InvariantsMsg;
  EXPECT_EQ(P.ExtractCosts, Plain.ExtractCosts);
}

TEST(SaturationSchedule, AxiomPhaseSplitsBuiltinRuleSet) {
  ir::Context Ctx;
  unsigned Cheap = 0, Expansive = 0;
  for (const match::Axiom &A : axioms::loadBuiltinAxioms(Ctx))
    (match::Matcher::axiomPhase(A) == 0 ? Cheap : Expansive) += 1;
  // Phasing is pointless unless the builtin set actually splits.
  EXPECT_GT(Cheap, 0u);
  EXPECT_GT(Expansive, 0u);

  auto phaseOf = [&](const char *Text) {
    return match::Matcher::axiomPhase(parseTestAxiom(Ctx, Text));
  };
  // Same-size rewrites are cheap; a side >= 2 applications larger is
  // expansive (the k*x -> shifts/adds shape).
  EXPECT_EQ(phaseOf(R"((\axiom (forall (x y)
                         (eq (\add64 x y) (\add64 y x)))))"),
            0u);
  EXPECT_EQ(phaseOf(R"((\axiom (forall (x)
                         (eq x (\add64 (\shl64 x 1) (\neg64 x))))))"),
            1u);
}

TEST(SaturationSchedule, SameRoundDuplicatesAreDropped) {
  // (f x) and (g x) both trigger the axiom, and f(a), g(a) both exist, so
  // the first round finds the substitution x = a twice. The second find
  // must be dropped as already queued, not asserted again.
  ir::Context Ctx;
  ir::OpId FOp = Ctx.Ops.declareOp("f", 1);
  ir::OpId GOp = Ctx.Ops.declareOp("g", 1);
  sexpr::ParseResult Text =
      sexpr::parseOne(R"((\axiom (forall (x) (eq (f x) (g x)))))");
  ASSERT_TRUE(Text.ok());
  std::string Err;
  std::optional<match::Axiom> A = match::parseAxiom(Ctx, Text.Forms[0], &Err);
  ASSERT_TRUE(A.has_value()) << Err;
  ASSERT_EQ(A->Triggers.size(), 2u);
  const std::vector<match::Axiom> Axioms{*A};

  egraph::EGraph G(Ctx);
  ClassId X = G.addNode(Ctx.Ops.makeVariable("a"), {});
  ClassId F = G.addNode(FOp, {X});
  ClassId Gx = G.addNode(GOp, {X});
  match::Matcher M(Axioms);
  match::MatchStats S = M.saturate(G, roundsBounded(1));
  EXPECT_TRUE(G.sameClass(F, Gx));
  EXPECT_EQ(S.MatchesFound, 2u);
  EXPECT_EQ(S.InstancesDeduped, 1u);
  EXPECT_EQ(S.InstancesAsserted, 1u);
}

/// One round of \p AxiomTexts over the unary operators f, g, h and k,
/// where each operator named in \p Seeded has \p Roots nodes op(a_i) over
/// distinct variables a_i.
match::MatchStats saturateWideTriggers(
    const std::vector<const char *> &AxiomTexts,
    const std::vector<const char *> &Seeded, unsigned Roots,
    const match::MatchLimits &Limits) {
  ir::Context Ctx;
  std::unordered_map<std::string, ir::OpId> Ops;
  for (const char *Name : {"f", "g", "h", "k"})
    Ops[Name] = Ctx.Ops.declareOp(Name, 1);
  std::vector<match::Axiom> Axioms;
  for (const char *Text : AxiomTexts)
    Axioms.push_back(parseTestAxiom(Ctx, Text));

  egraph::EGraph G(Ctx);
  for (const char *Op : Seeded)
    for (unsigned I = 0; I < Roots; ++I) {
      ClassId X = G.addNode(Ctx.Ops.makeVariable(strFormat("a%u", I)), {});
      G.addNode(Ops.at(Op), {X});
    }
  match::Matcher M(Axioms);
  return M.saturate(G, Limits);
}

const char *const FEqualsG = R"((\axiom (forall (x) (eq (f x) (g x)))))";
const char *const HEqualsK = R"((\axiom (forall (x) (eq (h x) (k x)))))";

TEST(SaturationSchedule, BudgetStopsAWideTriggerAtBudgetPlusOne) {
  // A trigger with 3000 roots, each a match: a binding budget stops it at
  // budget + 1 raw matches however many roots it has, and the round
  // asserts the first budget of them.
  match::MatchLimits Limits = roundsBounded(1);
  Limits.MatchBudget = 10;
  match::MatchStats S = saturateWideTriggers({FEqualsG}, {"f"}, 3000, Limits);
  EXPECT_EQ(S.MatchesFound, 11u);
  EXPECT_EQ(S.InstancesAsserted, 10u);
  EXPECT_EQ(S.BudgetOverflows, 1u);
  ASSERT_EQ(S.PerAxiom.size(), 1u);
  EXPECT_EQ(S.PerAxiom[0].Raw, 11u);
  EXPECT_EQ(S.PerAxiom[0].Overflows, 1u);
}

TEST(SaturationSchedule, InstanceCapStopsAWideTriggerAtItsFirstLeftOutMatch) {
  // Likewise the per-round instance cap: the trigger stops at the first
  // match the full pending list leaves out, cap + 1 raw matches, and the
  // round asserts cap instances.
  match::MatchLimits Limits = roundsBounded(1);
  Limits.MaxInstancesPerRound = 50;
  match::MatchStats S = saturateWideTriggers({FEqualsG}, {"f"}, 3000, Limits);
  EXPECT_EQ(S.MatchesFound, 51u);
  EXPECT_EQ(S.InstancesAsserted, 50u);
  EXPECT_EQ(S.BudgetOverflows, 0u);
  EXPECT_FALSE(S.Quiesced);
}

TEST(SaturationSchedule, BudgetCapsEnumerationPerAxiom) {
  // The budget caps the axiom, not each trigger: once (f x) has found
  // budget + 1 matches, (g x) does not enumerate at all.
  match::MatchLimits Limits = roundsBounded(1);
  Limits.MatchBudget = 10;
  match::MatchStats S =
      saturateWideTriggers({FEqualsG}, {"f", "g"}, 3000, Limits);
  EXPECT_EQ(S.MatchesFound, 11u);
  EXPECT_EQ(S.InstancesAsserted, 10u);
  EXPECT_EQ(S.BudgetOverflows, 1u);
  ASSERT_EQ(S.PerAxiom.size(), 1u);
  EXPECT_EQ(S.PerAxiom[0].Raw, 11u);
}

TEST(SaturationSchedule, InstanceCapStopsEachAxiomAtItsFirstLeftOutMatch) {
  // The first axiom fills the pending list and stops at the match it
  // leaves out (51 raw); the second stops at its first match (1 raw).
  match::MatchLimits Limits = roundsBounded(1);
  Limits.MaxInstancesPerRound = 50;
  match::MatchStats S =
      saturateWideTriggers({FEqualsG, HEqualsK}, {"f", "h"}, 3000, Limits);
  EXPECT_EQ(S.MatchesFound, 52u);
  EXPECT_EQ(S.InstancesAsserted, 50u);
  EXPECT_FALSE(S.Quiesced);
  ASSERT_EQ(S.PerAxiom.size(), 2u);
  EXPECT_EQ(S.PerAxiom[0].Raw, 51u);
  EXPECT_EQ(S.PerAxiom[1].Raw, 1u);
}

TEST(SaturationSchedule, NodeCapCutRoundIsNotQuiescent) {
  // The seeded graph already exceeds the cap, so round 1 queues its
  // instances and asserts none. The graph did not change, but the round
  // was cut, not quiescent.
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = figure2Seeds(Ctx);
  SatRun Free = runSat(Ctx, Seeds, match::MatchLimits());
  ASSERT_TRUE(Free.Stats.Quiesced);
  ASSERT_GT(Free.Stats.InstancesAsserted, 0u);

  match::MatchLimits Capped;
  Capped.MaxNodes = 1;
  SatRun R = runSat(Ctx, Seeds, Capped);
  EXPECT_EQ(R.Stats.Rounds, 1u);
  EXPECT_EQ(R.Stats.InstancesAsserted, 0u);
  EXPECT_FALSE(R.Stats.Quiesced);
}

TEST(SaturationSchedule, SemiNaiveRoundFindsMatchOnlyAUnionCreates) {
  // The Figure 2 step: k * 2**n matches reg6 * 4 only once 4 = 2**2.
  // Round 1 scans in full and finds nothing (an unrelated new node keeps
  // it from being quiescent); an elaborator then asserts the union before
  // round 2, whose semi-naive scan must find the match from the change
  // log alone.
  ir::Context Ctx;
  const std::vector<match::Axiom> Axioms{parseTestAxiom(
      Ctx,
      R"((\axiom (forall (k n) (eq (\mul64 k (\pow 2 n)) (\shl64 k n)))))")};

  // No constant folding: it would unite 2**2 with 4 on sight.
  egraph::EGraph G(Ctx, /*FoldConstants=*/false);
  auto Op = [&](Builtin B) { return Ctx.Ops.builtin(B); };
  ClassId Reg6 = G.addNode(Ctx.Ops.makeVariable("reg6"), {});
  ClassId Four = G.addConst(4);
  ClassId Mul = G.addNode(Op(Builtin::Mul64), {Reg6, Four});
  ClassId Pow = G.addNode(Op(Builtin::Pow), {G.addConst(2), G.addConst(2)});

  match::Matcher M(Axioms);
  unsigned Round = 0;
  M.addElaborator([&](egraph::EGraph &Gr) {
    if (++Round == 1)
      Gr.addNode(Ctx.Ops.makeVariable("unrelated"), {});
    else if (Round == 2)
      Gr.assertEqual(Pow, Four);
  });
  match::MatchStats S = M.saturate(G);
  EXPECT_TRUE(S.Quiesced);
  EXPECT_EQ(S.Rounds, 3u);
  EXPECT_EQ(S.InstancesAsserted, 1u);
  ClassId Two = G.addConst(2);
  ClassId Shl = G.addNode(Op(Builtin::Shl64), {Reg6, Two});
  EXPECT_TRUE(G.sameClass(Mul, Shl));
}

//===----------------------------------------------------------------------===
// Semi-naive oracle: a matcher that keeps its done set and matches only
// through what changed must reach, round after round, the graph that a
// fresh matcher's full scan reaches from the same starting graph.
//===----------------------------------------------------------------------===

/// What both arms can compare after a round: the partition of the seed
/// nodes (each one's first equal earlier seed node) and the live node and
/// class counts. Seed nodes are added first and in the same order in both
/// arms, so their ids agree even where later ids do not (a fresh matcher
/// re-asserts old instances, and mid-round those can add short-lived
/// congruent twins).
struct RoundState {
  std::vector<egraph::ENodeId> Partition;
  size_t Nodes = 0, Classes = 0;
  bool Inconsistent = false;
  bool operator==(const RoundState &O) const = default;
};

RoundState roundState(const egraph::EGraph &G, size_t SeedNodes) {
  RoundState S;
  std::unordered_map<ClassId, egraph::ENodeId> First;
  for (egraph::ENodeId N = 0; N < SeedNodes; ++N)
    S.Partition.push_back(First.emplace(G.classOf(N), N).first->second);
  S.Nodes = G.numNodes();
  S.Classes = G.numClasses();
  S.Inconsistent = G.isInconsistent();
  return S;
}

/// One oracle input: seed terms and the axioms they saturate under.
struct OracleInput {
  std::string Name;
  std::vector<ir::TermId> Seeds;
  const std::vector<match::Axiom> *Axioms = nullptr;
};

/// Runs both arms for \p Rounds rounds and compares them after every
/// round. \returns the rounds compared.
unsigned expectSemiNaiveMatchesFullScans(ir::Context &Ctx,
                                         const OracleInput &In,
                                         unsigned Rounds) {
  SCOPED_TRACE(In.Name);
  match::MatchLimits Limits = roundsBounded(Rounds);

  // One matcher for every round; an elaborator that runs first records
  // the graph each round starts from, i.e. the one the last round left.
  egraph::EGraph G(Ctx);
  for (ir::TermId T : In.Seeds)
    G.addTerm(T);
  const size_t SeedNodes = G.nodeIdBound();
  std::vector<RoundState> Kept;
  match::Matcher M(*In.Axioms);
  M.addElaborator(
      [&](egraph::EGraph &Gr) { Kept.push_back(roundState(Gr, SeedNodes)); });
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));
  match::MatchStats S = M.saturate(G, Limits);
  Kept.push_back(roundState(G, SeedNodes));
  EXPECT_EQ(Kept.size(), S.Rounds + 1u);

  // A fresh matcher, and so a full scan with nothing done, every round.
  egraph::EGraph F(Ctx);
  for (ir::TermId T : In.Seeds)
    F.addTerm(T);
  EXPECT_EQ(roundState(F, SeedNodes), Kept.front());
  Limits.MaxRounds = 1;
  for (unsigned R = 1; R <= Rounds; ++R) {
    match::Matcher Fresh(*In.Axioms);
    for (match::Elaborator &E : match::standardElaborators())
      Fresh.addElaborator(std::move(E));
    Fresh.saturate(F, Limits);
    const RoundState &Want = Kept[std::min<size_t>(R, Kept.size() - 1)];
    RoundState Got = roundState(F, SeedNodes);
    EXPECT_EQ(Got.Nodes, Want.Nodes) << "round " << R;
    EXPECT_EQ(Got.Classes, Want.Classes) << "round " << R;
    EXPECT_EQ(Got.Partition, Want.Partition) << "round " << R;
    EXPECT_FALSE(Got.Inconsistent) << "round " << R;
    if (!(Got == Want))
      return R;
  }
  return Rounds;
}

/// The E16 1x stress tier's seeds (bench_egraph_scale): three GmaGen GMAs
/// and a 4-byte swap chain in one graph.
std::vector<ir::TermId> stressTier1x(ir::Context &Ctx) {
  verify::GmaGenOptions GO;
  GO.MaxTargets = 3;
  GO.MaxDepth = 4;
  GO.NumScalars = 4;
  GO.MemoryPercent = 75;
  GO.StorePercent = 80;
  verify::GmaGen Gen(Ctx, /*Seed=*/16, GO);
  std::vector<ir::TermId> Seeds;
  for (unsigned I = 0; I < 3; ++I) {
    gma::GMA G = Gen.next();
    Seeds.insert(Seeds.end(), G.NewVals.begin(), G.NewVals.end());
    if (G.Guard)
      Seeds.push_back(*G.Guard);
  }
  Seeds.push_back(swapChain(Ctx, 4));
  return Seeds;
}

/// The seed terms of one GMA: its new values and its guard.
std::vector<ir::TermId> gmaSeeds(const gma::GMA &G) {
  std::vector<ir::TermId> Seeds(G.NewVals.begin(), G.NewVals.end());
  if (G.Guard)
    Seeds.push_back(*G.Guard);
  return Seeds;
}

TEST(SemiNaiveOracle, StressTierMatchesFullScans) {
  ir::Context Ctx;
  const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  OracleInput In{"e16-1x", stressTier1x(Ctx), &Axioms};
  EXPECT_EQ(expectSemiNaiveMatchesFullScans(Ctx, In, 8), 8u);
}

TEST(SemiNaiveOracle, GeneratedSliceMatchesFullScans) {
  // 5 GmaGen seeds x 24 GMAs, each in a graph of its own.
  for (uint64_t Seed = 1000; Seed < 1005; ++Seed) {
    ir::Context Ctx;
    const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    verify::GmaGen Gen(Ctx, Seed);
    for (unsigned I = 0; I < 24; ++I) {
      OracleInput In{strFormat("gen%llu.%u", (unsigned long long)Seed, I),
                     gmaSeeds(Gen.next()), &Axioms};
      expectSemiNaiveMatchesFullScans(Ctx, In, 5);
    }
  }
}

/// Calls \p Fn on every GMA of Denali source \p Text, under the builtin
/// axioms plus the program's own.
void forEachProgramGma(
    const std::string &Name, const std::string &Text,
    const std::function<void(ir::Context &, const OracleInput &)> &Fn) {
  ir::Context Ctx;
  std::string Err;
  std::optional<lang::Module> Mod = lang::parseAnyModule(Text, &Err);
  ASSERT_TRUE(Mod.has_value()) << Name << ": " << Err;
  for (const lang::OpDecl &D : Mod->OpDecls)
    Ctx.Ops.declareOp(D.Name, static_cast<int>(D.Arity));
  std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  for (const sexpr::SExpr &Form : Mod->Axioms) {
    std::optional<match::Axiom> A = match::parseAxiom(Ctx, Form, &Err);
    ASSERT_TRUE(A.has_value()) << Name << ": " << Err;
    Axioms.push_back(std::move(*A));
  }
  for (const lang::Proc &P : Mod->Procs) {
    std::optional<std::vector<gma::GMA>> Gmas =
        gma::translateProc(Ctx, P, &Err);
    ASSERT_TRUE(Gmas.has_value()) << Name << ": " << Err;
    for (const gma::GMA &G : *Gmas)
      Fn(Ctx, OracleInput{Name + ":" + G.Name, gmaSeeds(G), &Axioms});
  }
}

std::string readProgram(const std::string &File) {
  std::ifstream In(std::string(DENALI_EXAMPLES_DIR) + "/" + File);
  std::stringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// The paper kernels: the sample programs and the byteswap5 and permute16
/// sources of the benchmarks.
std::vector<std::pair<std::string, std::string>> paperKernels() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const char *File :
       {"byteswap4.dnl", "byteswap4.den", "checksum.dnl", "checksum.den",
        "checksum_pipelined.dnl", "copyloop.dnl", "rowop.dnl"})
    Out.push_back({File, readProgram(File)});
  Out.push_back({"byteswap5", bench::byteswapSource(5)});
  Out.push_back({"permute16", bench::permuteSource()});
  return Out;
}

TEST(SemiNaiveOracle, PaperKernelsMatchFullScans) {
  for (const auto &[Name, Text] : paperKernels())
    forEachProgramGma(Name, Text, [](ir::Context &Ctx, const OracleInput &In) {
      // The default round limit; every paper kernel quiesces before it.
      expectSemiNaiveMatchesFullScans(Ctx, In, match::MatchLimits().MaxRounds);
    });
}

//===----------------------------------------------------------------------===
// Operator views: each round's class scans see exactly the members that a
// scan of the whole class, filtered by operator, accepts.
//===----------------------------------------------------------------------===

/// Refreshes the operator views and compares each canonical class's range
/// for every operator among its members, and for one no node has, with
/// its filtered member scan. \returns the ranges compared.
size_t expectOpViewsMatchScans(egraph::EGraph &G, const std::string &When) {
  SCOPED_TRACE(When);
  G.refreshOpViews();
  const ir::OpId NoSuchOp =
      static_cast<ir::OpId>(G.context().Ops.size());
  size_t Compared = 0;
  for (ClassId C : G.canonicalClasses()) {
    std::vector<egraph::ENodeId> Scan;
    G.forEachClassNode(C, [&](egraph::ENodeId N) { Scan.push_back(N); });
    std::vector<ir::OpId> Ops;
    for (egraph::ENodeId N : Scan)
      Ops.push_back(G.node(N).Op);
    std::sort(Ops.begin(), Ops.end());
    Ops.erase(std::unique(Ops.begin(), Ops.end()), Ops.end());
    Ops.push_back(NoSuchOp);
    for (ir::OpId Op : Ops) {
      std::vector<egraph::ENodeId> Want, Got;
      for (egraph::ENodeId N : Scan)
        if (G.node(N).Op == Op)
          Want.push_back(N);
      for (const egraph::EGraph::OpMember &M : G.opView(C, Op))
        Got.push_back(M.Node);
      EXPECT_EQ(Got, Want) << "class " << C << ", op " << Op;
      ++Compared;
    }
  }
  return Compared;
}

/// Saturates \p In's seeds with a checking elaborator after the standard
/// ones. It closes the graph, as the matcher's rebuild right after it
/// would, and compares the views the round's enumeration reads; the graph
/// saturate() leaves is compared too. \returns the rounds run.
unsigned expectOpViewsMatchScansEveryRound(ir::Context &Ctx,
                                           const OracleInput &In,
                                           unsigned Rounds) {
  SCOPED_TRACE(In.Name);
  egraph::EGraph G(Ctx);
  for (ir::TermId T : In.Seeds)
    G.addTerm(T);
  match::Matcher M(*In.Axioms);
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));
  unsigned Round = 0;
  size_t Compared = 0;
  M.addElaborator([&](egraph::EGraph &Gr) {
    Gr.rebuild();
    Compared += expectOpViewsMatchScans(Gr, strFormat("round %u", ++Round));
  });
  match::MatchStats S = M.saturate(G, roundsBounded(Rounds));
  Compared += expectOpViewsMatchScans(G, "after saturation");
  EXPECT_EQ(Round, S.Rounds);
  EXPECT_GT(Compared, G.numClasses());
  return S.Rounds;
}

TEST(OpViews, PaperKernelsMatchClassScansEveryRound) {
  unsigned Gmas = 0, Rounds = 0;
  for (const auto &[Name, Text] : paperKernels())
    forEachProgramGma(Name, Text, [&](ir::Context &Ctx, const OracleInput &In) {
      ++Gmas;
      Rounds += expectOpViewsMatchScansEveryRound(
          Ctx, In, match::MatchLimits().MaxRounds);
    });
  // Most kernels take many rounds; a few GMAs quiesce in their first.
  EXPECT_GT(Rounds, 4 * Gmas);
}

TEST(OpViews, GeneratedSliceMatchesClassScansEveryRound) {
  for (uint64_t Seed = 1000; Seed < 1003; ++Seed) {
    ir::Context Ctx;
    const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    verify::GmaGen Gen(Ctx, Seed);
    for (unsigned I = 0; I < 24; ++I)
      expectOpViewsMatchScansEveryRound(
          Ctx,
          OracleInput{strFormat("gen%llu.%u", (unsigned long long)Seed, I),
                      gmaSeeds(Gen.next()), &Axioms},
          8);
  }
}

//===----------------------------------------------------------------------===
// Worklist-driven rebuild: deep congruence cascades cannot recurse.
//===----------------------------------------------------------------------===

TEST(SaturationStress, DeepCongruenceChainEager) {
  // f^N(x) / f^N(y) with x = y forces an N-step upward congruence
  // cascade; repair is worklist-driven, so this must not grow the call
  // stack with N (a recursive repair would overflow around ~1e4).
  constexpr unsigned Depth = 50000;
  ir::Context Ctx;
  egraph::EGraph G(Ctx);
  ir::OpId F = Ctx.Ops.declareOp("f", 1);
  ClassId X = G.addNode(Ctx.Ops.makeVariable("x"), {});
  ClassId Y = G.addNode(Ctx.Ops.makeVariable("y"), {});
  ClassId CX = X, CY = Y;
  for (unsigned I = 0; I < Depth; ++I) {
    CX = G.addNode(F, {CX});
    CY = G.addNode(F, {CY});
  }
  G.assertEqual(X, Y); // Eager: the full cascade runs here.
  EXPECT_TRUE(G.sameClass(CX, CY));
  EXPECT_GE(G.rebuildStats().CongruenceMerges, static_cast<uint64_t>(Depth));
  verify::InvariantReport Rep = verify::checkEGraphInvariants(G);
  EXPECT_TRUE(Rep.Ok) << Rep.toString();
}

TEST(SaturationStress, DeepCongruenceChainDeferred) {
  constexpr unsigned Depth = 50000;
  ir::Context Ctx;
  egraph::EGraph G(Ctx);
  G.setRebuildMode(egraph::RebuildMode::Deferred);
  ir::OpId F = Ctx.Ops.declareOp("f", 1);
  ClassId X = G.addNode(Ctx.Ops.makeVariable("x"), {});
  ClassId Y = G.addNode(Ctx.Ops.makeVariable("y"), {});
  ClassId CX = X, CY = Y;
  for (unsigned I = 0; I < Depth; ++I) {
    CX = G.addNode(F, {CX});
    CY = G.addNode(F, {CY});
  }
  G.assertEqual(X, Y);
  EXPECT_FALSE(G.sameClass(CX, CY)); // Congruence lags until rebuild().
  EXPECT_TRUE(G.rebuildPending());
  G.rebuild();
  EXPECT_FALSE(G.rebuildPending());
  EXPECT_TRUE(G.sameClass(CX, CY));
  verify::InvariantReport Rep = verify::checkEGraphInvariants(G);
  EXPECT_TRUE(Rep.Ok) << Rep.toString();
}

} // namespace
