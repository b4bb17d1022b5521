//===- tests/IncrementalTests.cpp - the ladder against the per-K reference ===//
//
// The budget search runs every probe on one extendable solver (the ladder:
// each cycle layer is encoded once, and a probe at K solves under the
// assumption ¬E_K). SearchOptions::FreshPerK probes the fresh per-K
// reference instance of every budget instead. These tests hold the ladder
// to that reference probe by probe — the same budgets with the same
// SAT/UNSAT answers, the same minimal K, the same LowerBoundProved — on the
// sample programs, the paper's byteswap5 and permute16, and a seeded
// GmaGen slice; they check the ladder's refutation certificates and the
// conflict-budget errors of both, and run the oracle's cross-check of the
// two on further seeds.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "alpha/ISA.h"
#include "axioms/BuiltinAxioms.h"
#include "codegen/Search.h"
#include "driver/Superoptimizer.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "sat/RupChecker.h"
#include "support/StringExtras.h"
#include "verify/GmaGen.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

using namespace denali;
using namespace denali::codegen;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

//===----------------------------------------------------------------------===
// The Encoder's ladder driven by hand: per-probe deltas, layer reuse, and
// RUP certificates against the clauses as added plus the assumption unit.
//===----------------------------------------------------------------------===

class LadderTest : public ::testing::Test {
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

  void saturate() {
    const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    match::Matcher M(Axioms);
    for (match::Elaborator &E : match::standardElaborators())
      M.addElaborator(std::move(E));
    match::MatchLimits Limits;
    Limits.MaxNodes = 30000;
    M.saturate(G, Limits);
    ASSERT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  }

  ClassId mixGoal() {
    return app(Builtin::Add64,
               {app(Builtin::Shl64, {v("x"), c(3)}),
                app(Builtin::Xor64,
                    {v("y"), app(Builtin::And64, {v("x"), v("y")})})});
  }
};

uint64_t familySum(const EncodingStats &S) {
  return S.DefinitionClauses + S.OperandClauses + S.ExclusivityClauses +
         S.DeadlineClauses + S.GuardClauses + S.MemoryClauses +
         S.GatingClauses;
}

TEST_F(LadderTest, ProbesAddOnlyWhatIsMissingAndCertify) {
  ClassId Goal = mixGoal();
  saturate();
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err))
      << Err;
  std::vector<NamedGoal> Goals = {{"res", Goal, false}};

  sat::Solver S;
  S.enableProofLogging();
  Encoder Enc(G, Isa, U, Goals, EncoderOptions(), S);
  unsigned Unsat = 0;
  unsigned K = 1;
  for (; K <= 12; ++K) {
    EncodingStats Stats = Enc.prepareBudget(K);
    EXPECT_EQ(Stats.Layers, 1u) << "K=" << K;
    EXPECT_EQ(Enc.layers(), K);
    EXPECT_EQ(familySum(Stats), Stats.Clauses) << "K=" << K;
    EXPECT_GT(Stats.Vars, 0);
    // A budget prepared twice adds nothing the second time.
    EncodingStats Again = Enc.prepareBudget(K);
    EXPECT_EQ(Again.Layers, 0u);
    EXPECT_EQ(Again.Vars, 0);
    EXPECT_EQ(Again.Clauses, 0u);

    sat::Lit A = Enc.budgetAssumption(K);
    sat::SolveResult R = S.solve({A});
    ASSERT_NE(R, sat::SolveResult::Unknown);
    if (R == sat::SolveResult::Sat)
      break;
    ++Unsat;
    // The certificate rests on the encoder's clauses as added plus the
    // assumption unit; the solver's lemmas are for the checker to derive.
    sat::Cnf F;
    F.NumVars = S.numVars();
    F.Clauses = S.problemClauses();
    F.Clauses.push_back(sat::ClauseLits{A});
    std::vector<sat::ClauseLits> Proof = S.proof();
    Proof.push_back(sat::ClauseLits{});
    EXPECT_TRUE(sat::checkRupProof(F, Proof, &Err)) << "K=" << K << ": "
                                                    << Err;
  }
  ASSERT_LE(K, 12u) << "no program within 12 cycles";
  EXPECT_GT(Unsat, 0u);
  machine::Program P = Enc.extract(K, "mix");
  EXPECT_EQ(P.Cycles, K);
  EXPECT_FALSE(P.Instrs.empty());

  // Going back down the ladder reuses every layer: only the deadline of the
  // smaller budget is new, and the answer is still a refutation.
  EncodingStats Down = Enc.prepareBudget(K - 1);
  EXPECT_EQ(Down.Layers, 0u);
  EXPECT_EQ(Down.Vars, 0);
  EXPECT_EQ(Down.Clauses, Down.DeadlineClauses);
  EXPECT_EQ(S.solve({Enc.budgetAssumption(K - 1)}), sat::SolveResult::Unsat);
}

TEST_F(LadderTest, FreeGoalShortCircuits) {
  ClassId Goal = v("x");
  saturate();
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err))
      << Err;
  SearchResult R =
      searchBudgets(G, Isa, U, {{"res", Goal, false}}, SearchOptions(), "x");
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 0u);
  EXPECT_TRUE(R.Program.Instrs.empty());
}

//===----------------------------------------------------------------------===
// The ladder against the fresh per-K reference.
//===----------------------------------------------------------------------===

/// Runs the budget search of one fixed input under \p Opts.
using Searcher = std::function<SearchResult(const SearchOptions &Opts)>;

SearchOptions searchOptions(unsigned MinCycles, unsigned MaxCycles,
                            bool FreshPerK) {
  SearchOptions S;
  S.MinCycles = MinCycles;
  S.MaxCycles = MaxCycles;
  S.FreshPerK = FreshPerK;
  return S;
}

/// Runs the ladder and the reference from MinCycles 1 and 3 and compares
/// them probe by probe. \returns the number of probes compared.
size_t expectLadderMatchesReference(const Searcher &Search,
                                    unsigned MaxCycles) {
  size_t Compared = 0;
  for (unsigned MinCycles : {1u, 3u}) {
    SCOPED_TRACE(strFormat("from %u", MinCycles));
    SearchResult Ref = Search(searchOptions(MinCycles, MaxCycles, true));
    SearchResult R = Search(searchOptions(MinCycles, MaxCycles, false));
    EXPECT_EQ(R.Found, Ref.Found) << R.Error << " / " << Ref.Error;
    if (R.Found && Ref.Found) {
      EXPECT_EQ(R.Cycles, Ref.Cycles);
      EXPECT_EQ(R.LowerBoundProved, Ref.LowerBoundProved);
    }
    // Same probes in the same order; every layer encoded once, so the
    // ladder adds exactly the reference's final instance plus one
    // deadline per earlier budget.
    EXPECT_EQ(R.Probes.size(), Ref.Probes.size());
    if (R.Probes.size() != Ref.Probes.size() || R.Probes.empty())
      continue;
    int Vars = 0;
    uint64_t Clauses = 0, Deadlines = 0;
    for (size_t I = 0; I < R.Probes.size(); ++I) {
      const Probe &P = R.Probes[I];
      EXPECT_EQ(P.Cycles, Ref.Probes[I].Cycles);
      EXPECT_EQ(P.Result, Ref.Probes[I].Result) << "K=" << P.Cycles;
      EXPECT_EQ(familySum(P.Stats), P.Stats.Clauses) << "K=" << P.Cycles;
      EXPECT_EQ(P.Stats.Layers, I == 0 ? P.Cycles : 1u) << "K=" << P.Cycles;
      Vars += P.Stats.Vars;
      Clauses += P.Stats.Clauses;
      if (I + 1 < R.Probes.size())
        Deadlines += P.Stats.DeadlineClauses;
      ++Compared;
    }
    const EncodingStats &Last = Ref.Probes.back().Stats;
    EXPECT_EQ(Vars, Last.Vars);
    EXPECT_EQ(Clauses, Last.Clauses + Deadlines);
  }
  return Compared;
}

/// With CertifyRefutations every UNSAT probe of the ladder carries a
/// certificate that passes the RUP checker.
void expectCertified(const Searcher &Search, unsigned MaxCycles) {
  SearchOptions S = searchOptions(1, MaxCycles, false);
  S.CertifyRefutations = true;
  SearchResult R = Search(S);
  for (const Probe &P : R.Probes)
    if (P.Result == sat::SolveResult::Unsat) {
      EXPECT_TRUE(P.ProofChecked) << "K=" << P.Cycles;
      EXPECT_GT(P.ProofSteps, 0u) << "K=" << P.Cycles;
    }
}

/// A search that exhausts its conflict budget reports the conflict-budget
/// error, never an answer. \returns how many of the two searches (the
/// ladder and the reference) ran out.
unsigned expectBudgetErrorOrSameAnswer(const Searcher &Search,
                                       unsigned MaxCycles) {
  SearchResult Ref = Search(searchOptions(1, MaxCycles, true));
  unsigned Exhausted = 0;
  for (bool FreshPerK : {false, true}) {
    SearchOptions S = searchOptions(1, MaxCycles, FreshPerK);
    S.ConflictBudget = 1;
    SearchResult R = Search(S);
    bool SawUnknown = false;
    for (const Probe &P : R.Probes)
      SawUnknown |= P.Result == sat::SolveResult::Unknown;
    if (SawUnknown) {
      ++Exhausted;
      EXPECT_FALSE(R.Found);
      EXPECT_NE(R.Error.find("exceeded the conflict budget"),
                std::string::npos)
          << R.Error;
      EXPECT_EQ(R.Probes.back().Result, sat::SolveResult::Unknown);
    } else {
      EXPECT_EQ(R.Found, Ref.Found);
      EXPECT_EQ(R.Cycles, Ref.Cycles);
      EXPECT_EQ(R.LowerBoundProved, Ref.LowerBoundProved);
    }
  }
  return Exhausted;
}

/// The full contract on one input. \returns the number of probes compared.
size_t expectLadderContract(const Searcher &Search, unsigned MaxCycles,
                            bool Certify = true) {
  size_t Compared = expectLadderMatchesReference(Search, MaxCycles);
  if (Certify)
    expectCertified(Search, MaxCycles);
  expectBudgetErrorOrSameAnswer(Search, MaxCycles);
  return Compared;
}

Searcher fixtureSearcher(const EGraph &G, const alpha::ISA &Isa,
                         const Universe &U, ClassId Goal) {
  return [&G, &Isa, &U, Goal](const SearchOptions &Opts) {
    return searchBudgets(G, Isa, U, {{"res", Goal, false}}, Opts, "test");
  };
}

TEST_F(LadderTest, AgreesOnScaledAdd) {
  ClassId Goal = app(Builtin::Add64, {app(Builtin::Mul64, {v("reg6"), c(4)}),
                                      c(1)});
  saturate();
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err));
  EXPECT_GT(expectLadderContract(fixtureSearcher(G, Isa, U, Goal), 12), 0u);
}

TEST_F(LadderTest, AgreesOnByteswap2) {
  ClassId X = v("x");
  ClassId Lo = app(Builtin::Shl64, {app(Builtin::And64, {X, c(0xff)}), c(8)});
  ClassId Hi = app(Builtin::And64, {app(Builtin::Shr64, {X, c(8)}), c(0xff)});
  ClassId Goal = app(Builtin::Or64, {Lo, Hi});
  saturate();
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err));
  EXPECT_GT(expectLadderContract(fixtureSearcher(G, Isa, U, Goal), 12), 0u);
}

TEST_F(LadderTest, AgreesOnMultiCycleMix) {
  ClassId Goal = mixGoal();
  saturate();
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err));
  EXPECT_GT(expectLadderContract(fixtureSearcher(G, Isa, U, Goal), 12), 0u);
}

TEST_F(LadderTest, LowerBoundRestsOnRefutationsBelow) {
  // x + 100000 needs an ldiq before the add, so its minimum is 2 cycles.
  // From a floor of 1 both searches refute K=1 and claim the lower bound;
  // from a floor of 2 they probe nothing below the answer and claim none.
  ClassId Goal = app(Builtin::Add64, {v("x"), c(100000)});
  saturate();
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err))
      << Err;
  Searcher Search = fixtureSearcher(G, Isa, U, Goal);
  for (bool FreshPerK : {false, true}) {
    SCOPED_TRACE(FreshPerK ? "reference" : "ladder");
    SearchResult R = Search(searchOptions(1, 12, FreshPerK));
    ASSERT_TRUE(R.Found) << R.Error;
    EXPECT_EQ(R.Cycles, 2u);
    EXPECT_EQ(R.Program.Cycles, 2u);
    EXPECT_TRUE(R.LowerBoundProved);
    ASSERT_EQ(R.Probes.size(), 2u);
    EXPECT_EQ(R.Probes[0].Cycles, 1u);
    EXPECT_EQ(R.Probes[0].Result, sat::SolveResult::Unsat);
    EXPECT_EQ(R.Probes[1].Cycles, 2u);
    EXPECT_EQ(R.Probes[1].Result, sat::SolveResult::Sat);
    EXPECT_GT(R.WallSeconds, 0.0);

    SearchResult AtFloor = Search(searchOptions(2, 12, FreshPerK));
    ASSERT_TRUE(AtFloor.Found) << AtFloor.Error;
    EXPECT_EQ(AtFloor.Cycles, 2u);
    EXPECT_FALSE(AtFloor.LowerBoundProved);
    ASSERT_EQ(AtFloor.Probes.size(), 1u);
    EXPECT_EQ(AtFloor.Probes[0].Result, sat::SolveResult::Sat);
  }
}

TEST_F(LadderTest, ReferenceFreeGoalShortCircuits) {
  // The reference takes the ladder's zero-cycle exit: no probe at all.
  ClassId Goal = v("x");
  saturate();
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, Isa, {G.find(Goal)}, UniverseOptions(), &Err))
      << Err;
  SearchResult R = fixtureSearcher(G, Isa, U, Goal)(searchOptions(1, 12, true));
  ASSERT_TRUE(R.Found) << R.Error;
  EXPECT_EQ(R.Cycles, 0u);
  EXPECT_TRUE(R.Program.Instrs.empty());
  EXPECT_TRUE(R.Probes.empty());
}

/// One GMA, saturated once and searched under many configurations.
struct Input {
  std::string Name;
  driver::Superoptimizer *Opt;
  gma::GMA G;
  driver::SaturatedGma Sat;

  Searcher searcher() const {
    return [this](const SearchOptions &S) {
      SearchOptions Saved = Opt->options().Search;
      Opt->options().Search = S;
      driver::GmaResult R = Opt->compileSaturated(Sat, G);
      Opt->options().Search = Saved;
      return R.Search;
    };
  }
};

/// The critical-path bound on one input, checked against the search. A
/// fresh encoder refutes every budget below the bound with zero conflicts;
/// the bound never exceeds the minimal K; and whenever K > MinCycles the
/// search refuted K-1, so the ladder starts one below the bound.
void expectBoundContract(const Input &In, unsigned MaxCycles) {
  const egraph::EGraph &G = *In.Sat.Graph;
  const machine::MachineModel &M = In.Opt->isa();
  std::vector<ClassId> Roots;
  for (const NamedGoal &Goal : In.Sat.Goals)
    Roots.push_back(Goal.Class);
  if (In.Sat.GuardClass)
    Roots.push_back(*In.Sat.GuardClass);
  Universe U;
  std::string Err;
  ASSERT_TRUE(U.build(G, M, Roots, In.Sat.UOpts, &Err)) << Err;
  EncoderOptions EOpts = In.Opt->options().Search.Encoding;
  EOpts.GuardClass = In.Sat.GuardClass;
  auto fresh = [&](sat::Solver &S) {
    return Encoder(G, M, U, In.Sat.Goals, EOpts, S);
  };
  sat::Solver Unused;
  const unsigned Bound = fresh(Unused).criticalPath();
  ASSERT_GE(Bound, 1u);
  for (unsigned K = 1; K < Bound && K <= MaxCycles; ++K) {
    sat::Solver S;
    Encoder Enc = fresh(S);
    Enc.prepareBudget(K);
    EXPECT_EQ(S.solve({Enc.budgetAssumption(K)}), sat::SolveResult::Unsat)
        << "K=" << K;
    EXPECT_EQ(S.stats().Conflicts, 0u) << "K=" << K;
  }
  for (unsigned MinCycles : {1u, 3u}) {
    SCOPED_TRACE(strFormat("from %u", MinCycles));
    SearchResult R = In.searcher()(searchOptions(MinCycles, MaxCycles, false));
    if (!R.Found || R.Cycles == 0)
      continue; // No answer to bound, or every goal is free.
    EXPECT_EQ(R.CriticalPath, Bound);
    EXPECT_LE(Bound, R.Cycles);
    if (R.Cycles <= MinCycles)
      continue;
    bool RefutedBelow = false;
    for (const Probe &P : R.Probes)
      RefutedBelow |= P.Cycles == R.Cycles - 1 &&
                      P.Result == sat::SolveResult::Unsat;
    EXPECT_TRUE(RefutedBelow) << "K=" << R.Cycles;
  }
}

/// Inputs and the pipelines that own them.
class Corpus {
public:
  std::vector<Input> Inputs;

  /// Every GMA of Denali source \p Text.
  void addSource(const std::string &Name, const std::string &Text) {
    driver::Superoptimizer &Opt = own(driver::Options());
    driver::CompileResult CR = Opt.compileSource(Text);
    ASSERT_TRUE(CR.ok()) << Name << ": " << CR.Error;
    for (const driver::GmaResult &GR : CR.Gmas)
      add(Name + ":" + GR.Gma.Name, Opt, GR.Gma);
  }

  /// \p Count GMAs from the seeded generator, under the harness limits.
  void addGenerated(uint64_t Seed, unsigned Count) {
    driver::Options O;
    O.Matching.MaxNodes = 8000;
    O.Matching.MaxRounds = 8;
    driver::Superoptimizer &Opt = own(O);
    verify::GmaGen Gen(Opt.context(), Seed);
    for (unsigned I = 0; I < Count; ++I)
      add(strFormat("gen%llu.%u", static_cast<unsigned long long>(Seed), I),
          Opt, Gen.next());
  }

private:
  std::vector<std::unique_ptr<driver::Superoptimizer>> Pipelines;

  driver::Superoptimizer &own(const driver::Options &O) {
    Pipelines.push_back(std::make_unique<driver::Superoptimizer>(O));
    return *Pipelines.back();
  }
  void add(const std::string &Name, driver::Superoptimizer &Opt,
           const gma::GMA &G) {
    driver::SaturatedGma Sat = Opt.saturateGMA(G);
    if (!Sat.ok())
      return; // Contradictory facts: nothing to search.
    Inputs.push_back(Input{Name, &Opt, G, std::move(Sat)});
  }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// Every program in examples/programs/, rowop (22 cycles) included.
class SampleProgram : public ::testing::TestWithParam<const char *> {};

TEST_P(SampleProgram, LadderMatchesReference) {
  Corpus C;
  C.addSource(GetParam(),
              readFile(std::string(DENALI_EXAMPLES_DIR) + "/" + GetParam()));
  ASSERT_FALSE(C.Inputs.empty());
  for (const Input &In : C.Inputs) {
    SCOPED_TRACE(In.Name);
    EXPECT_GT(expectLadderContract(In.searcher(), 26), 0u);
  }
}

TEST_P(SampleProgram, BoundIsSound) {
  Corpus C;
  C.addSource(GetParam(),
              readFile(std::string(DENALI_EXAMPLES_DIR) + "/" + GetParam()));
  ASSERT_FALSE(C.Inputs.empty());
  for (const Input &In : C.Inputs) {
    SCOPED_TRACE(In.Name);
    expectBoundContract(In, 26);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Examples, SampleProgram,
    ::testing::Values("byteswap4.dnl", "byteswap4.den", "checksum.dnl",
                      "checksum.den", "checksum_pipelined.dnl",
                      "copyloop.dnl", "rowop.dnl"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      std::string Name = Info.param;
      for (char &Ch : Name)
        if (Ch == '.')
          Ch = '_';
      return Name;
    });

TEST(PaperKernels, LadderMatchesReference) {
  Corpus C;
  C.addSource("byteswap5", bench::byteswapSource(5));
  C.addSource("permute16", bench::permuteSource());
  ASSERT_EQ(C.Inputs.size(), 2u);
  for (const Input &In : C.Inputs) {
    SCOPED_TRACE(In.Name);
    EXPECT_GT(expectLadderContract(In.searcher(), 12), 0u);
  }
}

TEST(PaperKernels, BoundIsSound) {
  Corpus C;
  C.addSource("byteswap5", bench::byteswapSource(5));
  C.addSource("permute16", bench::permuteSource());
  ASSERT_EQ(C.Inputs.size(), 2u);
  for (const Input &In : C.Inputs) {
    SCOPED_TRACE(In.Name);
    expectBoundContract(In, 12);
  }
}

TEST(PaperKernels, ExhaustedConflictBudgetIsAnError) {
  // byteswap4's K=4 refutation takes conflicts, so a budget of one
  // conflict runs out on the ladder and on the reference.
  Corpus C;
  C.addSource("byteswap4", bench::byteswapSource(4));
  ASSERT_EQ(C.Inputs.size(), 1u);
  EXPECT_EQ(expectBudgetErrorOrSameAnswer(C.Inputs[0].searcher(), 12), 2u);
}

/// A seeded GmaGen slice: 5 seeds x 24 GMAs.
class GeneratedSlice : public ::testing::TestWithParam<unsigned> {};

TEST_P(GeneratedSlice, LadderMatchesReference) {
  Corpus C;
  C.addGenerated(1000 + GetParam(), 24);
  ASSERT_GE(C.Inputs.size(), 20u);
  size_t Compared = 0;
  for (size_t I = 0; I < C.Inputs.size(); ++I) {
    SCOPED_TRACE(C.Inputs[I].Name);
    Compared += expectLadderContract(C.Inputs[I].searcher(), 12,
                                     /*Certify=*/I % 4 == 0);
  }
  // Some generated GMAs need no instruction at all; most need probes.
  EXPECT_GT(Compared, C.Inputs.size());
}

TEST_P(GeneratedSlice, BoundIsSound) {
  Corpus C;
  C.addGenerated(1000 + GetParam(), 24);
  ASSERT_GE(C.Inputs.size(), 20u);
  for (const Input &In : C.Inputs) {
    SCOPED_TRACE(In.Name);
    expectBoundContract(In, 12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedSlice, ::testing::Range(0u, 5u));

/// The oracle's cross-check on seeds the slice above does not cover: both
/// searches compile each GMA to a program that passes differential
/// verification, at the same minimal K.
class ReferenceOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReferenceOracle, CrossCheckPassesOnGeneratedGmas) {
  driver::Superoptimizer Opt;
  Opt.options().Search.MaxCycles = 12;
  Opt.options().Matching.MaxNodes = 8000;
  Opt.options().Matching.MaxRounds = 8;
  verify::GmaGen Gen(Opt.context(), 2000 + GetParam());
  unsigned Compiled = 0;
  for (unsigned I = 0; I < 3; ++I) {
    gma::GMA G = Gen.next();
    SCOPED_TRACE(G.Name);
    verify::OracleVerdict V;
    auto Err = verify::crossCheckReference(Opt, G, verify::OracleOptions(), &V);
    EXPECT_FALSE(Err) << *Err;
    EXPECT_FALSE(Opt.options().Search.FreshPerK);
    Compiled += !Err && V.Status == verify::OracleStatus::Pass;
  }
  EXPECT_GT(Compiled, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceOracle, ::testing::Range(0u, 6u));

//===----------------------------------------------------------------------===
// Driver-level agreement with differential verification of the programs.
//===----------------------------------------------------------------------===

driver::GmaResult compileMix(bool FreshPerK) {
  driver::Options Opts;
  Opts.Search.FreshPerK = FreshPerK;
  Opts.Search.MaxCycles = 12;
  driver::Superoptimizer Opt(Opts);
  ir::Context &Ctx = Opt.context();
  ir::TermId X = Ctx.Terms.makeVar("x");
  ir::TermId Y = Ctx.Terms.makeVar("y");
  ir::TermId Mul = Ctx.Terms.makeBuiltin(Builtin::Mul64,
                                         {X, Ctx.Terms.makeConst(8)});
  ir::TermId Sum = Ctx.Terms.makeBuiltin(Builtin::Add64, {Mul, Y});
  ir::TermId Goal = Ctx.Terms.makeBuiltin(Builtin::Xor64,
                                          {Sum, Ctx.Terms.makeConst(0x5a)});
  driver::GmaResult R = Opt.compileGoals("mix", {{"res", Goal}});
  EXPECT_TRUE(R.ok()) << R.Error << R.Search.Error;
  if (R.ok()) {
    auto Err = Opt.verify(R);
    EXPECT_FALSE(Err) << (Err ? *Err : "");
  }
  return R;
}

TEST(LadderDriver, VerifiedAndAgreesOnGoalTerms) {
  driver::GmaResult Ref = compileMix(/*FreshPerK=*/true);
  driver::GmaResult L = compileMix(/*FreshPerK=*/false);
  ASSERT_TRUE(Ref.ok() && L.ok());
  EXPECT_EQ(L.Search.Cycles, Ref.Search.Cycles);
  EXPECT_EQ(L.Search.LowerBoundProved, Ref.Search.LowerBoundProved);
}

} // namespace
