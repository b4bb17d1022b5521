//===- codegen/Search.cpp -------------------------------------------------===//

#include "codegen/Search.h"

#include "obs/Obs.h"
#include "sat/Dimacs.h"
#include "sat/RupChecker.h"
#include "support/StringExtras.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <optional>

using namespace denali;
using namespace denali::codegen;
using denali::sat::SolveResult;

namespace {

const char *probeResultName(const Probe &P) {
  switch (P.Result) {
  case SolveResult::Sat:
    return "sat";
  case SolveResult::Unsat:
    return "unsat";
  case SolveResult::Unknown:
    return "unknown";
  }
  return "unknown";
}

/// Flushes one finished probe into the registry: per-outcome probe counts
/// and the solver-effort deltas it spent.
void noteProbe(const Probe &P) {
  if (!obs::enabled())
    return;
  auto &R = obs::Registry::global();
  R.counter("search.probes").add(1);
  R.counter(strFormat("search.probes.%s", probeResultName(P))).add(1);
  R.counter("sat.conflicts").add(P.Conflicts);
  R.counter("sat.decisions").add(P.Decisions);
  R.counter("sat.propagations").add(P.Propagations);
  R.counter("sat.restarts").add(P.Restarts);
  R.counter("sat.learnt_clauses").add(P.LearntClauses);
  R.histogram("search.probe.solve_us")
      .record(static_cast<uint64_t>(P.SolveSeconds * 1e6));
}

/// Writes one probe's CNF to <DumpCnfDir>/<name>.K<cycles>.cnf.
/// \returns an error naming the file, or an empty string.
std::string dumpProbeCnf(const SearchOptions &Opts, const std::string &Name,
                         unsigned K, const sat::Cnf &F) {
  std::string Path = strFormat("%s/%s.K%u.cnf", Opts.DumpCnfDir.c_str(),
                               Name.empty() ? "gma" : Name.c_str(), K);
  FILE *Out = std::fopen(Path.c_str(), "w");
  bool Ok = Out != nullptr;
  if (Out) {
    std::string Text = F.toDimacs();
    Ok = std::fwrite(Text.data(), 1, Text.size(), Out) == Text.size();
    Ok &= std::fclose(Out) == 0;
  }
  return Ok ? std::string()
            : strFormat("cannot write CNF dump '%s'", Path.c_str());
}

/// One solver and the encoder that extends it. The search keeps one for
/// the whole compile; a fresh one per probe is the per-K reference
/// instance (FreshPerK, the why-unsat probe).
struct Ladder {
  sat::Solver S;
  Encoder Enc;

  Ladder(const egraph::EGraph &G, const machine::MachineModel &Isa,
         const Universe &U, const std::vector<NamedGoal> &Goals,
         const SearchOptions &Opts)
      : Enc(G, Isa, U, Goals, Opts.Encoding, S) {
    if (Opts.ConflictBudget)
      S.setConflictBudget(Opts.ConflictBudget);
    if (Opts.CertifyRefutations)
      S.enableProofLogging();
    if (!Opts.DumpCnfDir.empty())
      S.keepAddedClauses();
  }
};

/// Probes budget K on \p L: adds what the ladder lacks for K, then solves
/// under ¬E_K. On Sat, fills \p ProgramOut. Sets \p Error, and solves
/// nothing, when the probe's CNF dump cannot be written.
Probe probeBudget(Ladder &L, const SearchOptions &Opts, unsigned K,
                  std::optional<machine::Program> &ProgramOut,
                  const std::string &Name, std::string &Error) {
  obs::ObsSpan Span("search.probe");
  sat::Solver &S = L.S;
  Probe P;
  P.Cycles = K;
  Timer T;
  P.Stats = L.Enc.prepareBudget(K);
  P.EncodeSeconds = T.seconds();
  const sat::Lit Assumption = L.Enc.budgetAssumption(K);
  // The probe's formula: the clauses as added plus the assumption as a
  // unit, which is what a dump shows and a certificate is checked against.
  auto probeFormula = [&] {
    sat::Cnf F;
    F.NumVars = S.numVars();
    F.Clauses = S.problemClauses();
    F.Clauses.push_back(sat::ClauseLits{Assumption});
    return F;
  };
  if (!Opts.DumpCnfDir.empty()) {
    Error = dumpProbeCnf(Opts, Name, K, probeFormula());
    if (!Error.empty())
      return P;
  }
  const sat::SolverStats Before = S.stats();
  T.reset();
  P.Result = S.solve({Assumption});
  P.SolveSeconds = T.seconds();
  P.Conflicts = S.stats().Conflicts - Before.Conflicts;
  P.Decisions = S.stats().Decisions - Before.Decisions;
  P.Propagations = S.stats().Propagations - Before.Propagations;
  P.Restarts = S.stats().Restarts - Before.Restarts;
  P.LearntClauses = S.stats().LearntClauses - Before.LearntClauses;
  if (P.Result == SolveResult::Unsat)
    P.FailedAssumptions = S.conflict().size();
  if (Span.active())
    Span.arg("k", K)
        .arg("result", probeResultName(P))
        .arg("vars", P.Stats.Vars)
        .arg("clauses", P.Stats.Clauses)
        .arg("conflicts", P.Conflicts)
        .arg("decisions", P.Decisions)
        .arg("restarts", P.Restarts)
        .arg("failed_assumptions",
             static_cast<uint64_t>(P.FailedAssumptions));
  if (P.Result == SolveResult::Sat) {
    ProgramOut = L.Enc.extract(K, Name);
  } else if (P.Result == SolveResult::Unsat && Opts.CertifyRefutations) {
    // The learnt-clause log ends with the final assumption conflict (E_K),
    // so the empty clause follows by unit propagation from the unit ¬E_K.
    T.reset();
    std::vector<sat::ClauseLits> Proof = S.proof();
    if (Proof.empty() || !Proof.back().empty())
      Proof.push_back(sat::ClauseLits{});
    P.ProofSteps = Proof.size();
    P.ProofChecked = sat::checkRupProof(probeFormula(), Proof);
    P.ProofCheckSeconds = T.seconds();
  }
  return P;
}

/// The why-unsat explain probe: a fresh per-K instance at the budget just
/// below the found minimum, with clause tagging and core tracking on. Runs
/// after the search, so the search's own probes stay untouched.
void runExplainProbe(const egraph::EGraph &G, const machine::MachineModel &Isa,
                     const Universe &U, const std::vector<NamedGoal> &Goals,
                     const SearchOptions &Opts, SearchResult &Result) {
  if (!Result.Found || Result.Cycles <= std::max(1u, Opts.MinCycles))
    return;
  const unsigned K = Result.Cycles - 1;
  obs::ObsSpan Span("search.explain_probe");
  SearchOptions ExplainOpts;
  ExplainOpts.ConflictBudget = Opts.ConflictBudget;
  ExplainOpts.Encoding = Opts.Encoding;
  ExplainOpts.Encoding.TagClauses = true;
  Ladder Fresh(G, Isa, U, Goals, ExplainOpts);
  Fresh.S.enableCoreTracking();
  Fresh.Enc.prepareBudget(K);
  if (Fresh.S.solve({Fresh.Enc.budgetAssumption(K)}) == SolveResult::Unsat) {
    Result.WhyUnsatTags = Fresh.S.coreTags();
    Result.WhyUnsatCycles = K;
  }
  if (Span.active())
    Span.arg("k", K)
        .arg("core_tags", static_cast<uint64_t>(Result.WhyUnsatTags.size()));
}

/// The budget search: probes budgets upward until one is feasible, on one
/// ladder or, with FreshPerK, on a fresh per-K instance for each budget.
/// The wrapper adds the explain probe and the timing summary.
SearchResult searchBudgetsImpl(const egraph::EGraph &G, const machine::MachineModel &Isa,
                               const Universe &U,
                               const std::vector<NamedGoal> &Goals,
                               const SearchOptions &Opts,
                               const std::string &Name) {
  SearchResult Result;

  // All goals free: the empty program computes everything.
  bool AllFree = true;
  for (const NamedGoal &Goal : Goals)
    AllFree &= U.isFree(G.find(Goal.Class));
  if (AllFree && !Goals.empty()) {
    SearchOptions Plain;
    Plain.Encoding = Opts.Encoding;
    Ladder Empty(G, Isa, U, Goals, Plain);
    Empty.Enc.prepareBudget(1);
    if (Empty.S.solve({Empty.Enc.budgetAssumption(1)}) == SolveResult::Sat) {
      Result.Found = true;
      Result.Cycles = 0;
      Result.Program = Empty.Enc.extract(1, Name);
      Result.Program.Cycles = 0;
      Result.Program.Instrs.clear();
      return Result;
    }
  }

  // Budget 0 has no cycle layer to encode; the empty program above is the
  // only zero-cycle answer. Every budget below the critical path is refuted
  // by its deadline alone, so the ladder starts one below it: that probe
  // still refutes a budget under the answer, which LowerBoundProved and the
  // why-unsat probe rest on. A goal that can never be computed puts the
  // start past every budget.
  const unsigned MinCycles = std::max(1u, Opts.MinCycles);
  std::optional<Ladder> L(std::in_place, G, Isa, U, Goals, Opts);
  Result.CriticalPath = L->Enc.criticalPath();
  const unsigned Start = std::max(MinCycles, Result.CriticalPath - 1);
  for (unsigned K = Start; K <= Opts.MaxCycles; ++K) {
    if (Opts.FreshPerK && K > Start)
      L.emplace(G, Isa, U, Goals, Opts);
    std::optional<machine::Program> Prog;
    Probe P = probeBudget(*L, Opts, K, Prog, Name, Result.Error);
    if (!Result.Error.empty())
      return Result;
    noteProbe(P);
    Result.Probes.push_back(std::move(P));
    SolveResult R = Result.Probes.back().Result;
    if (R == SolveResult::Sat) {
      Result.Found = true;
      Result.Cycles = K;
      Result.Program = std::move(*Prog);
      Result.LowerBoundProved = K > Start;
      return Result;
    }
    if (R == SolveResult::Unknown) {
      Result.Error =
          strFormat("probe at %u cycles exceeded the conflict budget", K);
      return Result;
    }
  }
  Result.Error = strFormat("no program within %u cycles", Opts.MaxCycles);
  return Result;
}

} // namespace

std::string denali::codegen::describeProbe(const Probe &P) {
  return strFormat("K=%u[%dv/%lluc/%s]", P.Cycles, P.Stats.Vars,
                   static_cast<unsigned long long>(P.Stats.Clauses),
                   probeResultName(P));
}

SearchResult denali::codegen::searchBudgets(
    const egraph::EGraph &G, const machine::MachineModel &Isa, const Universe &U,
    const std::vector<NamedGoal> &Goals, const SearchOptions &Opts,
    const std::string &Name) {
  obs::ObsSpan Span("search");
  Timer Wall;
  SearchResult Result = searchBudgetsImpl(G, Isa, U, Goals, Opts, Name);
  if (Opts.ExplainUnsat)
    runExplainProbe(G, Isa, U, Goals, Opts, Result);
  Result.WallSeconds = Wall.seconds();
  if (obs::enabled()) {
    if (Span.active())
      Span.arg("name", Name.c_str())
          .arg("found", Result.Found ? "yes" : "no")
          .arg("cycles", Result.Cycles)
          .arg("probes", static_cast<uint64_t>(Result.Probes.size()));
    auto &R = obs::Registry::global();
    R.counter("search.runs").add(1);
    if (Result.Found)
      R.counter("search.found").add(1);
    R.histogram("search.wall_us")
        .record(static_cast<uint64_t>(Result.WallSeconds * 1e6));
    obs::logf(1, "search %s: found=%d cycles=%u probes=%zu wall=%.3fs",
              Name.c_str(), Result.Found ? 1 : 0, Result.Cycles,
              Result.Probes.size(), Result.WallSeconds);
  }
  return Result;
}
