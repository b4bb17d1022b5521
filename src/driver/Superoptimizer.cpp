//===- driver/Superoptimizer.cpp ------------------------------------------===//

#include "driver/Superoptimizer.h"

#include "alpha/ISA.h"
#include "machine/RV64.h"
#include "support/Error.h"

#include "explain/Explain.h"
#include "lang/Surface.h"
#include "match/Elaborate.h"
#include "support/StringExtras.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <random>

using namespace denali;
using namespace denali::driver;
using denali::ir::Builtin;

namespace {

/// Idempotent; makes the built-in backends constructible by name no matter
/// who instantiates the pipeline first.
void registerBuiltinMachines() {
  alpha::registerAlphaMachine();
  machine::registerRV64Machine();
}

} // namespace

std::optional<std::string>
denali::driver::checkMachineName(const std::string &Name) {
  registerBuiltinMachines();
  std::vector<std::string> Machines = machine::registeredMachines();
  if (std::find(Machines.begin(), Machines.end(), Name) != Machines.end())
    return std::nullopt;
  std::string Known;
  for (const std::string &N : Machines)
    Known += (Known.empty() ? "" : ", ") + N;
  return strFormat("unknown machine '%s' (known: %s)", Name.c_str(),
                   Known.c_str());
}

Superoptimizer::Superoptimizer(Options O)
    : Opts(O), Axioms(axioms::loadBuiltinAxioms(Ctx)) {
  registerBuiltinMachines();
  std::string Err;
  Model = machine::createMachine(Opts.MachineName, Ctx, &Err);
  if (!Model)
    reportFatalError("Superoptimizer: " + Err);
  if (O.Obs.Enabled)
    obs::configure(O.Obs);
  if (!Opts.ProfileLedgerPath.empty()) {
    std::string Err;
    if (!Ledger.load(Opts.ProfileLedgerPath, &Err))
      // A corrupt ledger costs only scheduling history; start cold rather
      // than failing the whole pipeline over an observability artifact.
      std::fprintf(stderr, "denali: profile ledger '%s': %s (starting cold)\n",
                   Opts.ProfileLedgerPath.c_str(), Err.c_str());
  }
}

std::string denali::driver::matchOptionsFingerprint(const Options &Opts) {
  const match::MatchLimits &M = Opts.Matching;
  std::string F = strFormat(
      "guard=%d;prov=%d;rounds=%u;nodes=%zu;inst=%zu;budget=%llu;"
      "phased=%d;eager=%d;adapt=%d;disp=%lld;lat=%d",
      Opts.EnforceGuard ? 1 : 0,
      Opts.Explain ? 1 : 0, M.MaxRounds, M.MaxNodes, M.MaxInstancesPerRound,
      (unsigned long long)M.MatchBudget, M.Phased ? 1 : 0,
      M.EagerRebuild ? 1 : 0, Opts.MatchAdaptive ? 1 : 0,
      (long long)Opts.Universe.MaxDisp, Opts.Universe.TestLatencyDelta);
  // Global latency injections (a test-only knob, but soundness first):
  // include them sorted so the fingerprint is deterministic.
  if (!Opts.Universe.LoadLatencyByAddr.empty()) {
    std::vector<std::pair<egraph::ClassId, unsigned>> L(
        Opts.Universe.LoadLatencyByAddr.begin(),
        Opts.Universe.LoadLatencyByAddr.end());
    std::sort(L.begin(), L.end());
    for (auto &[C, Lat] : L)
      F += strFormat(";miss%u=%u", C, Lat);
  }
  return F;
}

std::string denali::driver::profileLedgerKey(const Options &Opts) {
  Options Masked = Opts;
  Masked.MatchAdaptive = false;
  return matchOptionsFingerprint(Masked);
}

bool Superoptimizer::saveProfileLedger(std::string *ErrorOut) const {
  if (Opts.ProfileLedgerPath.empty())
    return true;
  return Ledger.save(Opts.ProfileLedgerPath, ErrorOut);
}

bool Superoptimizer::addAxiomsText(const std::string &Text,
                                   std::string *ErrorOut) {
  auto Parsed = axioms::parseAxiomsText(Ctx, Text, ErrorOut);
  if (!Parsed)
    return false;
  for (match::Axiom &A : *Parsed) {
    if (auto Def = match::extractDefinition(Ctx, A))
      Defs.emplace(Def->first, Def->second);
    Axioms.push_back(std::move(A));
  }
  return true;
}

SaturatedGma Superoptimizer::saturateGMA(const gma::GMA &G) const {
  SaturatedGma S;
  auto Graph = std::make_shared<egraph::EGraph>(Ctx);
  if (Opts.Explain)
    Graph->enableProvenance();

  // Goal classes: guard + all new values + annotated miss addresses.
  for (size_t I = 0; I < G.Targets.size(); ++I) {
    egraph::ClassId C = Graph->addTerm(G.NewVals[I]);
    bool IsMemory =
        Ctx.Terms.node(G.NewVals[I]).Op == Ctx.Ops.builtin(Builtin::Store) ||
        G.Targets[I] == "M";
    S.Goals.push_back(codegen::NamedGoal{G.Targets[I], C, IsMemory});
  }
  if (G.Guard && Opts.EnforceGuard)
    S.GuardClass = Graph->addTerm(*G.Guard);
  codegen::UniverseOptions UOpts = Opts.Universe;
  for (ir::TermId Addr : G.MissAddrs) {
    egraph::ClassId C = Graph->addTerm(Addr);
    UOpts.LoadLatencyByAddr[Graph->find(C)] = Model->loadMissLatency();
  }
  // Trust facts: asserted before matching so the whole saturation can use
  // them (the \trust feature of section 2).
  for (const gma::GMA::Assumption &A : G.Assumptions) {
    egraph::ClassId L = Graph->addTerm(A.Lhs);
    egraph::ClassId R = Graph->addTerm(A.Rhs);
    if (A.IsEq)
      Graph->assertEqual(L, R);
    else
      Graph->assertDistinct(L, R);
  }
  if (Graph->isInconsistent()) {
    S.Error = "contradictory \\assume facts: " +
              Graph->inconsistencyMessage();
    S.Graph = std::move(Graph);
    return S;
  }

  // Matching phase (Figure 1, left box).
  Timer T;
  match::Matcher M(Axioms);
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));
  // Profiling loop: adaptive saturation reads the ledger's history for
  // this options fingerprint, and every profiled run records back into
  // it — so a persistent ledger aggregates across processes and a
  // long-lived server warms its own scheduling request over request.
  match::MatchLimits ML = Opts.Matching;
  const bool ProfileRuns =
      Opts.MatchAdaptive || !Opts.ProfileLedgerPath.empty();
  std::string LedgerKey;
  if (ProfileRuns)
    LedgerKey = profileLedgerKey(Opts);
  if (Opts.MatchAdaptive) {
    ML.Adaptive = true;
    ML.Ledger = &Ledger;
    ML.LedgerKey = LedgerKey;
  }
  S.Matching = M.saturate(*Graph, ML);
  S.MatchSeconds = T.seconds();
  if (ProfileRuns)
    match::recordMatchProfile(Ledger, LedgerKey, Axioms, S.Matching);
  obs::logf(2, "gma %s: saturation %u rounds, %zu nodes / %zu classes "
               "(%.3fs)",
            G.Name.c_str(), S.Matching.Rounds, S.Matching.FinalNodes,
            S.Matching.FinalClasses, S.MatchSeconds);
  if (Graph->isInconsistent()) {
    S.Error = "E-graph inconsistent (unsound axiom?): " +
              Graph->inconsistencyMessage();
    S.Graph = std::move(Graph);
    return S;
  }
  // Miss annotations may have moved classes during saturation.
  S.UOpts = Opts.Universe;
  S.UOpts.LoadLatencyByAddr.clear();
  for (auto &[C, L] : UOpts.LoadLatencyByAddr)
    S.UOpts.LoadLatencyByAddr[Graph->find(C)] = L;

  // Canonicalize goal classes after merging.
  for (codegen::NamedGoal &Goal : S.Goals)
    Goal.Class = Graph->find(Goal.Class);
  if (S.GuardClass)
    S.GuardClass = Graph->find(*S.GuardClass);

  // Freeze: fully compress every union-find path so subsequent const
  // queries perform no writes — the property concurrent readers (the
  // compile server's warm-graph serving) rely on.
  Graph->compressPaths();
  S.Graph = std::move(Graph);
  return S;
}

GmaResult Superoptimizer::compileSaturated(const SaturatedGma &S,
                                           const gma::GMA &G) const {
  // Counted here rather than in compileGMA so every compile path (direct,
  // server cold tier, warm-graph replay) lands in the per-backend counter.
  obs::Registry::global().counter("driver.compile." + Opts.MachineName).add();
  GmaResult Result;
  Result.Gma = G;
  Result.Matching = S.Matching;
  Result.MatchSeconds = S.MatchSeconds;
  if (!S.Error.empty()) {
    Result.Error = S.Error;
    return Result;
  }
  const egraph::EGraph &Graph = *S.Graph;
  std::vector<egraph::ClassId> Roots;
  for (const codegen::NamedGoal &Goal : S.Goals)
    Roots.push_back(Goal.Class);
  if (S.GuardClass)
    Roots.push_back(*S.GuardClass);

  // The graph is quiescent; dump it before the phases that can fail, so a
  // universe/search failure still leaves the inspectors.
  if (Opts.EGraphDump) {
    obs::ObsSpan DSpan("explain.egraph_dump");
    Result.EGraphDotText = explain::egraphToDot(Graph);
    Result.EGraphJsonText = explain::egraphToJson(Graph);
    if (DSpan.active())
      DSpan.arg("dot_bytes",
                static_cast<uint64_t>(Result.EGraphDotText.size()));
  }

  // Constraint generation + satisfiability search (Figure 1, right boxes).
  codegen::Universe U;
  std::string Err;
  {
    obs::ObsSpan USpan("universe.build");
    if (!U.build(Graph, *Model, Roots, S.UOpts, &Err)) {
      Result.Error = Err;
      return Result;
    }
    if (USpan.active())
      USpan.arg("terms", static_cast<uint64_t>(U.terms().size()))
          .arg("classes", static_cast<uint64_t>(U.neededClasses().size()));
  }
  codegen::SearchOptions SOpts = Opts.Search;
  if (S.GuardClass)
    SOpts.Encoding.GuardClass = *S.GuardClass;
  if (Opts.WhyUnsat)
    SOpts.ExplainUnsat = true;
  Result.Search =
      codegen::searchBudgets(Graph, *Model, U, S.Goals, SOpts, G.Name);
  if (!Result.Search.Found)
    Result.Error = Result.Search.Error;
  if (Opts.WhyUnsat)
    Result.WhyUnsatText = explain::whyUnsatReport(Result.Search, U, S.Goals);
  if (Opts.Explain && Result.Search.Found) {
    obs::ObsSpan ESpan("explain.program");
    explain::ProgramExplanation E =
        explain::explainProgram(Graph, U, Axioms, Result.Search.Program);
    Result.ExplanationJson = explain::explanationToJson(E);
    Result.ExplanationListing = explain::explanationToListing(E);
    if (ESpan.active())
      ESpan.arg("instructions", static_cast<uint64_t>(E.Instrs.size()));
  }
  obs::logf(1, "gma %s: %s (%u cycles, %zu probes)", G.Name.c_str(),
            Result.ok() ? "compiled" : "failed", Result.Search.Cycles,
            Result.Search.Probes.size());
  return Result;
}

GmaResult Superoptimizer::compileGMA(const gma::GMA &G) const {
  obs::ObsSpan Span("gma.compile");
  // The machine label lets reports split compile latency per backend
  // (alpha vs rv64) from one shared trace or metrics capture.
  if (Span.active())
    Span.arg("name", G.Name.c_str())
        .arg("machine", Opts.MachineName.c_str());
  return compileSaturated(saturateGMA(G), G);
}

GmaResult Superoptimizer::compileGoals(
    const std::string &Name,
    const std::vector<std::pair<std::string, ir::TermId>> &Goals) const {
  gma::GMA G;
  G.Name = Name;
  for (const auto &[Target, Term] : Goals) {
    G.Targets.push_back(Target);
    G.NewVals.push_back(Term);
  }
  return compileGMA(G);
}

CompileResult Superoptimizer::compileSource(const std::string &Source) {
  CompileResult Result;
  std::string Err;
  std::optional<lang::Module> M;
  {
    obs::ObsSpan Span("lang.parse");
    M = lang::parseAnyModule(Source, &Err);
    if (Span.active())
      Span.arg("bytes", static_cast<uint64_t>(Source.size()))
          .arg("ok", M ? "yes" : "no");
  }
  if (!M) {
    Result.Error = Err;
    return Result;
  }
  for (const lang::OpDecl &D : M->OpDecls)
    Ctx.Ops.declareOp(D.Name, static_cast<int>(D.Arity));
  for (const sexpr::SExpr &AxForm : M->Axioms) {
    std::optional<match::Axiom> A = match::parseAxiom(Ctx, AxForm, &Err);
    if (!A) {
      Result.Error = "axiom: " + Err;
      return Result;
    }
    if (auto Def = match::extractDefinition(Ctx, *A))
      Defs.emplace(Def->first, Def->second);
    Axioms.push_back(std::move(*A));
  }
  for (const lang::Proc &P : M->Procs) {
    std::optional<std::vector<gma::GMA>> Gmas;
    {
      obs::ObsSpan Span("gma.translate");
      Gmas = gma::translateProc(Ctx, P, &Err);
      if (Span.active())
        Span.arg("proc", P.Name.c_str())
            .arg("gmas",
                 static_cast<uint64_t>(Gmas ? Gmas->size() : 0));
    }
    if (!Gmas) {
      Result.Error = Err;
      return Result;
    }
    for (const gma::GMA &G : *Gmas)
      Result.Gmas.push_back(compileGMA(G));
  }
  return Result;
}

std::optional<std::string> Superoptimizer::verify(const GmaResult &R,
                                                  unsigned Trials,
                                                  uint64_t Seed) const {
  if (!R.ok())
    return "GMA was not compiled successfully";
  const machine::Program &P = R.Search.Program;

  machine::TimingReport TR = machine::validateTiming(*Model, P);
  if (!TR.Ok)
    return "timing: " + TR.Error;

  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 0xb5297a4d);
  std::vector<ir::OpId> Inputs = gma::gmaInputs(Ctx, R.Gma);
  for (unsigned Trial = 0; Trial < Trials; ++Trial) {
    ir::Env E;
    std::unordered_map<std::string, ir::Value> SimInputs;
    for (ir::OpId In : Inputs) {
      const std::string &Name = Ctx.Ops.info(In).Name;
      // Memory inputs are those the program declares as memory.
      bool IsMemory = false;
      for (const machine::ProgramInput &PI : P.Inputs)
        if (PI.Name == Name)
          IsMemory = PI.IsMemory;
      ir::Value V = IsMemory ? ir::Value::makeArray(Rng())
                             : ir::Value::makeInt(Rng());
      E[In] = V;
      SimInputs[Name] = V;
    }
    // Some program inputs may be unused by the reference terms (e.g. the
    // memory of an unannotated path); bind them too.
    for (const machine::ProgramInput &PI : P.Inputs)
      if (!SimInputs.count(PI.Name)) {
        ir::Value V = PI.IsMemory ? ir::Value::makeArray(Rng())
                                  : ir::Value::makeInt(Rng());
        SimInputs[PI.Name] = V;
        // Program inputs come from terms in the e-graph, so the variable
        // exists in the (read-only) operator table; bind it if so, and
        // skip the binding otherwise — an unknown name cannot appear in
        // the reference terms either.
        if (std::optional<ir::OpId> Op = Ctx.Ops.lookup(PI.Name))
          E[*Op] = V;
      }
    // Honor \assume facts of the simple `var = <evaluable>` shape by
    // forcing the variable's value (the generated code is entitled to rely
    // on them). Random inputs satisfy `neq` facts with overwhelming
    // probability; other equalities are the programmer's risk.
    for (const gma::GMA::Assumption &A : R.Gma.Assumptions) {
      if (!A.IsEq)
        continue;
      for (auto [VarSide, ValSide] : {std::pair{A.Lhs, A.Rhs},
                                      std::pair{A.Rhs, A.Lhs}}) {
        const ir::TermNode &N = Ctx.Terms.node(VarSide);
        if (!Ctx.Ops.isVariable(N.Op))
          continue;
        if (auto V = ir::evalTerm(Ctx.Terms, ValSide, E, &Defs)) {
          E[N.Op] = *V;
          SimInputs[Ctx.Ops.info(N.Op).Name] = *V;
          break;
        }
      }
    }

    std::string Err;
    auto Want = gma::evalGMA(Ctx, R.Gma, E, &Defs, &Err);
    if (!Want)
      return "reference evaluation failed: " + Err;
    machine::RunResult Run = machine::runProgram(Ctx, P, SimInputs);
    if (!Run.Ok)
      return std::string(Run.TheTrap ? "simulation trap: "
                                     : "simulation failed: ") +
             Run.Error;
    // Replay loads/stores against one real shared memory: catches
    // discipline bugs the value semantics cannot.
    if (auto MemErr = machine::validateMemoryDiscipline(Ctx, P, SimInputs))
      return "memory discipline: " + *MemErr;
    for (const auto &[Target, WantV] : *Want) {
      auto It = Run.Outputs.find(Target);
      if (It == Run.Outputs.end())
        return strFormat("output '%s' missing from program",
                         Target.c_str());
      if (!It->second.equals(WantV))
        return strFormat(
            "trial %u: output '%s' mismatch: program %s, reference %s",
            Trial, Target.c_str(), It->second.toString().c_str(),
            WantV.toString().c_str());
    }
  }
  return std::nullopt;
}
