//===- tests/ProfileTests.cpp - saturation profiler & adaptive budgets ----===//
//
// Contract tests for the per-axiom attribution ledger (obs::ProfileLedger)
// and the history-driven adaptive scheduler (MatchLimits::Adaptive):
//
//  * ledger persistence is merge-on-load JSONL with exponential
//    forgetting — totals add, FirstRound min / LastRound max, rows halve
//    at the DecayThreshold, malformed lines fail loudly, a missing file
//    is a cold start;
//  * recordMatchProfile writes one row per non-ground axiom whose sums
//    reconcile exactly with the aggregate MatchStats (raw matches,
//    asserted instances) — all-zero rows included, so "never matched" is
//    demotable history;
//  * adaptive scheduling with a warmed ledger reaches the identical
//    quiescent closure as blind backoff (partition, node/class counts,
//    extraction costs) while enumerating strictly fewer raw matches, and
//    with an empty ledger is bit-identical to the default scheduler;
//  * the ledger key (driver::profileLedgerKey) masks the adaptive bit, so
//    profiling runs feed the adaptive runs they warm, while the server's
//    cache fingerprint (driver::matchOptionsFingerprint) keeps them
//    distinct.
//
//===----------------------------------------------------------------------===//

#include "axioms/BuiltinAxioms.h"
#include "driver/Superoptimizer.h"
#include "egraph/EGraph.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "obs/ProfileLedger.h"
#include "support/StringExtras.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace denali;
using denali::egraph::ClassId;
using denali::ir::Builtin;

namespace {

obs::AxiomProfile mkProfile(uint64_t Raw, uint64_t Instances,
                            uint64_t MatchNs, uint64_t InstNs,
                            unsigned First = 0, unsigned Last = 0) {
  obs::AxiomProfile P;
  P.Raw = Raw;
  P.Instances = Instances;
  P.MatchNs = MatchNs;
  P.InstantiateNs = InstNs;
  P.FirstRound = First;
  P.LastRound = Last;
  P.Runs = 1;
  return P;
}

/// The paper's Figure 2 goal (reg6*4 + 1) — quiesces under the default
/// limits, which every closure-equivalence test here needs.
std::vector<ir::TermId> figure2Seeds(ir::Context &Ctx) {
  ir::TermId Mul = Ctx.Terms.makeBuiltin(
      Builtin::Mul64, {Ctx.Terms.makeVar("reg6"), Ctx.Terms.makeConst(4)});
  return {Ctx.Terms.makeBuiltin(Builtin::Add64,
                                {Mul, Ctx.Terms.makeConst(1)})};
}

/// Figure-2-style goals over distinct variables (the E20 input): a finite
/// closure like figure2Seeds, with enough alike nodes that a budget of 2
/// raw matches per axiom-round overflows.
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

/// One saturation run over a fresh graph; returns the stats and fills the
/// seed-root partition.
match::MatchStats runSat(ir::Context &Ctx,
                         const std::vector<ir::TermId> &Seeds,
                         const match::MatchLimits &Limits,
                         std::vector<unsigned> *PartitionOut = nullptr,
                         obs::ProfileLedger *RecordInto = nullptr,
                         const std::string &Key = "k") {
  egraph::EGraph G(Ctx);
  std::vector<ClassId> Roots;
  for (ir::TermId T : Seeds)
    Roots.push_back(G.addTerm(T));
  const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  match::Matcher M(Axioms);
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));
  match::MatchStats S = M.saturate(G, Limits);
  if (RecordInto)
    match::recordMatchProfile(*RecordInto, Key, M.axioms(), S);
  if (PartitionOut) {
    PartitionOut->assign(Roots.size(), 0);
    for (size_t I = 0; I < Roots.size(); ++I) {
      (*PartitionOut)[I] = static_cast<unsigned>(I);
      for (size_t J = 0; J < I; ++J)
        if (G.sameClass(Roots[I], Roots[J])) {
          (*PartitionOut)[I] = static_cast<unsigned>(J);
          break;
        }
    }
  }
  return S;
}

//===----------------------------------------------------------------------===
// ProfileLedger persistence
//===----------------------------------------------------------------------===

TEST(ProfileLedger, RoundTripsThroughJsonl) {
  obs::ProfileLedger L;
  L.record("key1", "ax#0", mkProfile(10, 3, 5000, 2000, 1, 4));
  L.record("key1", "ax#1", mkProfile(7, 0, 900, 0));
  L.record("key2", "ax#0", mkProfile(2, 2, 100, 100, 2, 2));
  ASSERT_EQ(L.size(), 3u);

  obs::ProfileLedger Copy;
  std::string Err;
  ASSERT_TRUE(Copy.loadText(L.toJsonl(), &Err)) << Err;
  ASSERT_EQ(Copy.size(), 3u);
  obs::AxiomProfile P;
  ASSERT_TRUE(Copy.lookup("key1", "ax#0", P));
  EXPECT_EQ(P.Raw, 10u);
  EXPECT_EQ(P.Instances, 3u);
  EXPECT_EQ(P.MatchNs, 5000u);
  EXPECT_EQ(P.InstantiateNs, 2000u);
  EXPECT_EQ(P.FirstRound, 1u);
  EXPECT_EQ(P.LastRound, 4u);
  EXPECT_EQ(P.Runs, 1u);
  // Serialization is deterministic (rows sorted by key then id).
  EXPECT_EQ(L.toJsonl(), Copy.toJsonl());
}

TEST(ProfileLedger, LoadMergesInsteadOfReplacing) {
  obs::ProfileLedger L;
  L.record("k", "a#0", mkProfile(10, 2, 100, 100, 3, 5));
  std::string Once = L.toJsonl();

  obs::ProfileLedger M;
  ASSERT_TRUE(M.loadText(Once));
  ASSERT_TRUE(M.loadText(Once));
  obs::AxiomProfile P;
  ASSERT_TRUE(M.lookup("k", "a#0", P));
  EXPECT_EQ(P.Raw, 20u);
  EXPECT_EQ(P.Instances, 4u);
  EXPECT_EQ(P.Runs, 2u);
  // FirstRound stays the min nonzero, LastRound the max.
  EXPECT_EQ(P.FirstRound, 3u);
  EXPECT_EQ(P.LastRound, 5u);
}

TEST(ProfileLedger, RecordDecaysAtThreshold) {
  obs::ProfileLedger L;
  obs::AxiomProfile Old = mkProfile(1000, 100, 100000, 50000);
  Old.Runs = obs::ProfileLedger::DecayThreshold;
  L.record("k", "a#0", Old);

  // The next record halves the accumulated row before adding, so the
  // totals stay bounded and recent behavior dominates.
  L.record("k", "a#0", mkProfile(10, 1, 1000, 500));
  obs::AxiomProfile P;
  ASSERT_TRUE(L.lookup("k", "a#0", P));
  EXPECT_EQ(P.Raw, 510u);
  EXPECT_EQ(P.Instances, 51u);
  EXPECT_EQ(P.Runs, obs::ProfileLedger::DecayThreshold / 2 + 1);
}

TEST(ProfileLedger, DecayDropsEmptiedRows) {
  obs::ProfileLedger L;
  obs::AxiomProfile Small = mkProfile(1, 0, 10, 0);
  L.record("k", "a#0", Small);
  obs::AxiomProfile Big = mkProfile(100, 10, 1000, 500);
  Big.Runs = 10;
  L.record("k", "a#1", Big);
  ASSERT_EQ(L.size(), 2u);

  L.decay(0.4); // a#0's single run rounds down to 0 -> dropped.
  EXPECT_EQ(L.size(), 1u);
  obs::AxiomProfile P;
  EXPECT_FALSE(L.lookup("k", "a#0", P));
  ASSERT_TRUE(L.lookup("k", "a#1", P));
  EXPECT_EQ(P.Runs, 4u);
  EXPECT_EQ(P.Raw, 40u);
}

TEST(ProfileLedger, MalformedLineFailsLoudly) {
  obs::ProfileLedger L;
  std::string Err;
  EXPECT_FALSE(L.loadText("{\"key\": \"k\", truncated", &Err));
  EXPECT_FALSE(Err.empty());
  // Rows parsed before the bad line are kept (merge semantics), but the
  // failure is reported so a corrupt ledger never goes unnoticed.
  EXPECT_FALSE(L.loadText("not json at all\n", &Err));
}

TEST(ProfileLedger, MissingFileIsColdStart) {
  obs::ProfileLedger L;
  std::string Err;
  EXPECT_TRUE(L.load("/nonexistent/denali-profile-ledger.jsonl", &Err))
      << Err;
  EXPECT_EQ(L.size(), 0u);
}

TEST(ProfileLedger, SaveWritesLoadableFile) {
  obs::ProfileLedger L;
  L.record("k", "a#0", mkProfile(5, 1, 100, 100));
  std::string Path =
      testing::TempDir() + "/denali_profile_ledger_test.jsonl";
  std::string Err;
  ASSERT_TRUE(L.save(Path, &Err)) << Err;
  obs::ProfileLedger M;
  ASSERT_TRUE(M.load(Path, &Err)) << Err;
  EXPECT_EQ(M.size(), 1u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===
// Attribution: recordMatchProfile and MatchStats::PerAxiom
//===----------------------------------------------------------------------===

/// Checks that \p S's per-axiom rows add up to its run totals.
void expectPerAxiomSumsReconcile(const match::MatchStats &S) {
  ASSERT_FALSE(S.PerAxiom.empty());
  uint64_t Raw = 0, Instances = 0, Overflows = 0, Skips = 0;
  for (const obs::AxiomProfile &P : S.PerAxiom) {
    Raw += P.Raw;
    Instances += P.Instances;
    Overflows += P.Overflows;
    Skips += P.Skips;
    if (P.Instances) {
      EXPECT_GE(P.LastRound, P.FirstRound);
    }
  }
  EXPECT_EQ(Raw, S.MatchesFound);
  EXPECT_EQ(Instances, S.InstancesAsserted);
  EXPECT_EQ(Overflows, S.BudgetOverflows);
  EXPECT_EQ(Skips, S.BudgetSkips);
}

TEST(ProfileAttribution, PerAxiomSumsReconcileWithAggregate) {
  ir::Context Ctx;
  match::MatchStats S = runSat(Ctx, figure2Seeds(Ctx), match::MatchLimits());
  ASSERT_TRUE(S.Quiesced);
  expectPerAxiomSumsReconcile(S);

  // Again with rounds that caps cut: a budget of 2 stops axioms partway
  // through their triggers' enumeration.
  match::MatchLimits Budgeted;
  Budgeted.MatchBudget = 2;
  S = runSat(Ctx, figure2Groups(Ctx, 4), Budgeted);
  ASSERT_TRUE(S.Quiesced);
  ASSERT_GT(S.BudgetOverflows, 0u);
  expectPerAxiomSumsReconcile(S);
}

TEST(ProfileAttribution, RecordsAllNonGroundAxiomsIncludingIdleOnes) {
  ir::Context Ctx;
  obs::ProfileLedger L;
  runSat(Ctx, figure2Seeds(Ctx), match::MatchLimits(), nullptr, &L, "g");

  std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  size_t NonGround = 0, ZeroRows = 0;
  for (size_t I = 0; I < Axioms.size(); ++I) {
    if (Axioms[I].VarNames.empty())
      continue; // ground facts carry no schedulable history
    ++NonGround;
    obs::AxiomProfile P;
    ASSERT_TRUE(
        L.lookup("g", match::Matcher::axiomLedgerId(Axioms[I], I), P))
        << "missing row for axiom " << I;
    EXPECT_EQ(P.Runs, 1u);
    if (!P.Raw && !P.Instances)
      ++ZeroRows;
  }
  EXPECT_EQ(L.size(), NonGround);
  // figure2 exercises a small slice of the builtin rule set; the idle
  // rest must still be recorded (zero rows are what demotion reads).
  EXPECT_GT(ZeroRows, 0u);
}

TEST(ProfileAttribution, LedgerIdPinsIndexAgainstNameCollisions) {
  ir::Context Ctx;
  std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  ASSERT_GT(Axioms.size(), 1u);
  std::string A = match::Matcher::axiomLedgerId(Axioms[0], 0);
  std::string B = match::Matcher::axiomLedgerId(Axioms[1], 1);
  EXPECT_NE(A, B);
  EXPECT_NE(A.find('#'), std::string::npos);
}

//===----------------------------------------------------------------------===
// Adaptive scheduling
//===----------------------------------------------------------------------===

TEST(AdaptiveSchedule, WarmLedgerReachesBlindClosureWithFewerMatches) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = figure2Groups(Ctx, 4);

  // Blind: tight budget, backoff has to discover every axiom's appetite.
  match::MatchLimits Blind;
  Blind.MatchBudget = 2;
  Blind.MaxRounds = 200;
  std::vector<unsigned> BlindPart;
  obs::ProfileLedger Ledger;
  match::MatchStats B = runSat(Ctx, Seeds, Blind, &BlindPart, &Ledger, "g");
  ASSERT_TRUE(B.Quiesced);
  ASSERT_GT(B.BudgetOverflows, 0u);

  match::MatchLimits Warm = Blind;
  Warm.Adaptive = true;
  Warm.Ledger = &Ledger;
  Warm.LedgerKey = "g";
  std::vector<unsigned> WarmPart;
  match::MatchStats W = runSat(Ctx, Seeds, Warm, &WarmPart);
  EXPECT_TRUE(W.Quiesced);
  EXPECT_GT(W.AdaptiveSeeded, 0u);
  // Identical closure, strictly fewer raw match attempts.
  EXPECT_EQ(W.FinalNodes, B.FinalNodes);
  EXPECT_EQ(W.FinalClasses, B.FinalClasses);
  EXPECT_EQ(WarmPart, BlindPart);
  EXPECT_LT(W.MatchesFound, B.MatchesFound);
}

TEST(AdaptiveSchedule, DemotesNeverProductiveAxioms) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = figure2Seeds(Ctx);
  obs::ProfileLedger Ledger;
  match::MatchStats Plain =
      runSat(Ctx, Seeds, match::MatchLimits(), nullptr, &Ledger, "g");
  ASSERT_TRUE(Plain.Quiesced);

  // Unbudgeted adaptive run: seeding is off (nothing to raise), but the
  // idle axioms recorded above demote to a trailing phase. The closure
  // must not change — demoted work re-enters via phase advances.
  match::MatchLimits Adaptive;
  Adaptive.Adaptive = true;
  Adaptive.Ledger = &Ledger;
  Adaptive.LedgerKey = "g";
  match::MatchStats A = runSat(Ctx, Seeds, Adaptive);
  EXPECT_TRUE(A.Quiesced);
  EXPECT_GT(A.AdaptiveDemoted, 0u);
  EXPECT_GT(A.PhaseAdvances, 0u);
  EXPECT_EQ(A.FinalNodes, Plain.FinalNodes);
  EXPECT_EQ(A.FinalClasses, Plain.FinalClasses);
}

TEST(AdaptiveSchedule, NoHistoryIsBitIdenticalToDefaultScheduler) {
  ir::Context Ctx;
  std::vector<ir::TermId> Seeds = figure2Seeds(Ctx);
  match::MatchLimits Plain;
  Plain.MatchBudget = 4;
  Plain.MaxRounds = 200;
  match::MatchStats A = runSat(Ctx, Seeds, Plain);

  obs::ProfileLedger Empty;
  match::MatchLimits Adaptive = Plain;
  Adaptive.Adaptive = true;
  Adaptive.Ledger = &Empty;
  Adaptive.LedgerKey = "g";
  match::MatchStats B = runSat(Ctx, Seeds, Adaptive);
  EXPECT_EQ(B.AdaptiveSeeded, 0u);
  EXPECT_EQ(B.AdaptiveDemoted, 0u);
  EXPECT_EQ(A.Rounds, B.Rounds);
  EXPECT_EQ(A.MatchesFound, B.MatchesFound);
  EXPECT_EQ(A.InstancesAsserted, B.InstancesAsserted);
  EXPECT_EQ(A.InstancesDeduped, B.InstancesDeduped);
  EXPECT_EQ(A.BudgetOverflows, B.BudgetOverflows);
  EXPECT_EQ(A.BudgetSkips, B.BudgetSkips);
  EXPECT_EQ(A.FinalNodes, B.FinalNodes);
  EXPECT_EQ(A.FinalClasses, B.FinalClasses);
}

//===----------------------------------------------------------------------===
// Driver wiring: fingerprints and ledger keys
//===----------------------------------------------------------------------===

TEST(ProfileDriver, LedgerKeyMasksAdaptiveBitButFingerprintKeepsIt) {
  driver::Options A;
  driver::Options B = A;
  B.MatchAdaptive = true;
  // The server memo must not share entries across scheduling modes...
  EXPECT_NE(driver::matchOptionsFingerprint(A),
            driver::matchOptionsFingerprint(B));
  // ...but profiling runs and the adaptive runs they warm share rows.
  EXPECT_EQ(driver::profileLedgerKey(A), driver::profileLedgerKey(B));

  driver::Options C = A;
  C.Matching.MatchBudget = 64;
  EXPECT_NE(driver::profileLedgerKey(A), driver::profileLedgerKey(C));
}

TEST(ProfileDriver, SuperoptimizerRecordsAndPersistsLedger) {
  std::string Path = testing::TempDir() + "/denali_driver_ledger.jsonl";
  std::remove(Path.c_str());
  {
    driver::Options Opts;
    Opts.ProfileLedgerPath = Path;
    driver::Superoptimizer Opt(Opts);
    driver::GmaResult R = Opt.compileGoals(
        "f", {{"r", figure2Seeds(Opt.context())[0]}});
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_GT(Opt.profileLedger().size(), 0u);
    std::string Err;
    ASSERT_TRUE(Opt.saveProfileLedger(&Err)) << Err;
  }
  {
    // A second pipeline warm-starts from the file and merges onto it.
    driver::Options Opts;
    Opts.ProfileLedgerPath = Path;
    Opts.MatchAdaptive = true;
    driver::Superoptimizer Opt(Opts);
    EXPECT_GT(Opt.profileLedger().size(), 0u);
    driver::GmaResult R = Opt.compileGoals(
        "f", {{"r", figure2Seeds(Opt.context())[0]}});
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_GT(R.Matching.AdaptiveSeeded + R.Matching.AdaptiveDemoted, 0u);
  }
  std::remove(Path.c_str());
}

} // namespace
