//===- codegen/Search.cpp -------------------------------------------------===//

#include "codegen/Search.h"

#include "obs/Obs.h"
#include "sat/Dimacs.h"
#include "sat/RupChecker.h"
#include "support/StringExtras.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>

using namespace denali;
using namespace denali::codegen;
using denali::sat::SolveResult;

namespace {

const char *probeResultName(const Probe &P) {
  if (P.Cancelled)
    return "cancelled";
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
  if (P.Cancelled) {
    R.histogram("search.cancel.post_conflicts").record(P.ConflictsAfterCancel);
    if (P.CancelLatencySeconds >= 0)
      R.histogram("search.cancel.latency_us")
          .record(static_cast<uint64_t>(P.CancelLatencySeconds * 1e6));
  }
}

/// Writes one probe's CNF to <DumpCnfDir>/<name>.K<cycles>.cnf.
void dumpProbeCnf(const SearchOptions &Opts, const std::string &Name,
                  unsigned K, const sat::Cnf &F) {
  std::string Path = strFormat("%s/%s.K%u.cnf", Opts.DumpCnfDir.c_str(),
                               Name.empty() ? "gma" : Name.c_str(), K);
  if (FILE *Out = std::fopen(Path.c_str(), "w")) {
    std::string Text = F.toDimacs();
    std::fwrite(Text.data(), 1, Text.size(), Out);
    std::fclose(Out);
  }
}

/// One solver and the encoder that extends it. Linear and binary search
/// keep one for the whole compile; a fresh one per probe is the per-K
/// reference instance (portfolio probes, the why-unsat probe).
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
/// under ¬E_K. On Sat, fills \p ProgramOut; a Cancelled probe (the
/// solver's interrupt fired) produces no evidence.
Probe probeBudget(Ladder &L, const SearchOptions &Opts, unsigned K,
                  std::optional<machine::Program> &ProgramOut,
                  const std::string &Name) {
  obs::ObsSpan Span("search.probe");
  sat::Solver &S = L.S;
  Probe P;
  P.Cycles = K;
  P.Worker = support::ThreadPool::currentWorkerId();
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
  if (!Opts.DumpCnfDir.empty())
    dumpProbeCnf(Opts, Name, K, probeFormula());
  const sat::SolverStats Before = S.stats();
  T.reset();
  P.Result = S.solve({Assumption});
  P.SolveSeconds = T.seconds();
  P.Conflicts = S.stats().Conflicts - Before.Conflicts;
  P.Decisions = S.stats().Decisions - Before.Decisions;
  P.Propagations = S.stats().Propagations - Before.Propagations;
  P.Restarts = S.stats().Restarts - Before.Restarts;
  P.LearntClauses = S.stats().LearntClauses - Before.LearntClauses;
  P.Cancelled = S.interrupted();
  if (P.Cancelled)
    P.ConflictsAfterCancel = S.conflictsAfterInterrupt();
  if (P.Result == SolveResult::Unsat)
    P.FailedAssumptions = S.conflict().size();
  if (Span.active())
    Span.arg("k", K)
        .arg("result", probeResultName(P))
        .arg("worker", P.Worker)
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

/// Drives the Linear budget ladder through \p ProbeK — a callable probing
/// one budget (recording the probe in Result) and returning its
/// SolveResult, with the program filled on Sat.
template <typename ProbeFn>
SearchResult &runLinearLadder(SearchResult &Result, const SearchOptions &Opts,
                              ProbeFn &&ProbeK) {
  for (unsigned K = Opts.MinCycles; K <= Opts.MaxCycles; ++K) {
    std::optional<machine::Program> Prog;
    SolveResult R = ProbeK(K, Prog);
    if (R == SolveResult::Sat) {
      Result.Found = true;
      Result.Cycles = K;
      Result.Program = std::move(*Prog);
      Result.LowerBoundProved = K > Opts.MinCycles;
      Result.WinningProbe = static_cast<int>(Result.Probes.size()) - 1;
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

/// Binary search: find a feasible Hi by doubling, then bisect
/// [Lo = largest proved-infeasible + 1, Hi = smallest known-feasible].
template <typename ProbeFn>
SearchResult &runBinaryLadder(SearchResult &Result, const SearchOptions &Opts,
                              ProbeFn &&ProbeK) {
  unsigned Lo = Opts.MinCycles;
  unsigned Hi = Opts.MinCycles;
  std::optional<machine::Program> BestProg;
  unsigned BestK = 0;
  int BestIdx = -1;
  bool AnyUnsat = false;
  for (;;) {
    std::optional<machine::Program> Prog;
    SolveResult R = ProbeK(Hi, Prog);
    if (R == SolveResult::Sat) {
      BestProg = std::move(Prog);
      BestK = Hi;
      BestIdx = static_cast<int>(Result.Probes.size()) - 1;
      break;
    }
    if (R == SolveResult::Unknown) {
      Result.Error =
          strFormat("probe at %u cycles exceeded the conflict budget", Hi);
      return Result;
    }
    AnyUnsat = true;
    Lo = Hi + 1;
    if (Hi >= Opts.MaxCycles) {
      Result.Error = strFormat("no program within %u cycles", Opts.MaxCycles);
      return Result;
    }
    Hi = std::min(Opts.MaxCycles, Hi * 2);
  }
  while (Lo < BestK) {
    unsigned Mid = Lo + (BestK - Lo) / 2;
    std::optional<machine::Program> Prog;
    SolveResult R = ProbeK(Mid, Prog);
    if (R == SolveResult::Sat) {
      BestProg = std::move(Prog);
      BestK = Mid;
      BestIdx = static_cast<int>(Result.Probes.size()) - 1;
    } else if (R == SolveResult::Unsat) {
      AnyUnsat = true;
      Lo = Mid + 1;
    } else {
      Result.Error =
          strFormat("probe at %u cycles exceeded the conflict budget", Mid);
      return Result;
    }
  }
  Result.Found = true;
  Result.Cycles = BestK;
  Result.Program = std::move(*BestProg);
  Result.LowerBoundProved = AnyUnsat && BestK > Opts.MinCycles;
  Result.WinningProbe = BestIdx;
  return Result;
}

/// The portfolio outer loop: probes a window of budgets [Base, Base+W)
/// concurrently, advancing the window only when every budget in it is
/// proved infeasible — so, like linear search, it accumulates an UNSAT
/// certificate for every budget below the answer. A SAT answer at K
/// cancels in-flight probes at K' > K (their results cannot matter:
/// feasibility is monotone in K); an UNSAT answer cancels nothing, it
/// only contributes to advancing the window's lower bound.
SearchResult searchPortfolio(const egraph::EGraph &G, const machine::MachineModel &Isa,
                             const Universe &U,
                             const std::vector<NamedGoal> &Goals,
                             const SearchOptions &Opts,
                             const std::string &Name) {
  SearchResult Result;
  unsigned Threads = Opts.Threads;
  if (Threads == 0) {
    Threads = std::thread::hardware_concurrency();
    if (Threads == 0)
      Threads = 1;
  }
  const unsigned Window = Threads;

  // Freeze the E-graph's union-find: after full path compression the
  // const query interface is write-free, so probe workers may share it.
  G.compressPaths();
  support::ThreadPool Pool(Threads);

  // Carry the caller's request context onto the pool workers so probe spans
  // recorded there are stamped with the same request id as the rest of the
  // request's pipeline.
  const obs::RequestToken ReqTok = obs::currentRequestToken();

  struct Slot {
    support::CancellationToken Cancel;
    Probe P;
    std::optional<machine::Program> Prog;
    bool Done = false;
    /// When the winner requested this slot's cancellation (obs::nowNs();
    /// 0 = never asked). Written and read under the window mutex.
    int64_t CancelRequestNs = 0;
  };

  for (unsigned Base = Opts.MinCycles; Base <= Opts.MaxCycles;) {
    const unsigned End = std::min(Opts.MaxCycles + 1, Base + Window);
    const unsigned N = End - Base;
    std::vector<Slot> Slots(N);
    std::mutex Mutex; // Guards Slots[*].Done and the cancellation sweep.
    std::vector<std::future<void>> Futures;
    Futures.reserve(N);

    for (unsigned I = 0; I < N; ++I) {
      const unsigned K = Base + I;
      Futures.push_back(Pool.submit([&, I, K] {
        obs::RequestScope ReqScope(ReqTok);
        Slot &Mine = Slots[I];
        std::optional<machine::Program> Prog;
        Probe P;
        if (Mine.Cancel.isCancelled()) {
          // Cancelled before starting: skip the encode entirely.
          P.Cycles = K;
          P.Worker = support::ThreadPool::currentWorkerId();
          P.Cancelled = true;
        } else {
          // A fresh per-K instance: workers share nothing but the frozen
          // graph and the universe.
          Ladder Fresh(G, Isa, U, Goals, Opts);
          Fresh.S.setInterrupt(Mine.Cancel.flag());
          P = probeBudget(Fresh, Opts, K, Prog, Name);
        }
        std::lock_guard<std::mutex> Lock(Mutex);
        Mine.P = std::move(P);
        Mine.Prog = std::move(Prog);
        Mine.Done = true;
        // Cancellation latency: from the winner's request (stamped under
        // this mutex) to this probe's return.
        if (Mine.P.Cancelled && Mine.CancelRequestNs != 0) {
          Mine.P.CancelLatencySeconds =
              static_cast<double>(obs::nowNs() - Mine.CancelRequestNs) / 1e9;
          if (obs::enabled())
            obs::instant(
                "search.cancel",
                strFormat("\"k\":%u,\"latency_us\":%.1f,"
                          "\"post_conflicts\":%llu",
                          K, Mine.P.CancelLatencySeconds * 1e6,
                          static_cast<unsigned long long>(
                              Mine.P.ConflictsAfterCancel)));
        }
        noteProbe(Mine.P);
        // A SAT answer makes every larger budget irrelevant.
        if (Mine.P.Result == SolveResult::Sat) {
          int64_t Now = obs::nowNs();
          for (unsigned J = I + 1; J < N; ++J)
            if (!Slots[J].Done) {
              if (Slots[J].CancelRequestNs == 0)
                Slots[J].CancelRequestNs = Now; // First request wins.
              Slots[J].Cancel.requestCancel();
            }
        }
      }));
    }
    for (std::future<void> &F : Futures)
      F.get(); // Joins the window; rethrows worker exceptions.

    // Record the window's probes in budget order (reports stay
    // deterministic regardless of completion order).
    std::optional<unsigned> SatIdx;
    for (unsigned I = 0; I < N; ++I) {
      Slot &S = Slots[I];
      if (S.P.Cancelled)
        ++Result.CancelledProbes;
      if (S.P.Result == SolveResult::Sat && !SatIdx)
        SatIdx = I; // Smallest SAT budget in the window.
      Result.Probes.push_back(S.P);
    }

    const unsigned Evidence = SatIdx ? *SatIdx : N;
    for (unsigned I = 0; I < Evidence; ++I) {
      // Budgets below the smallest SAT answer are never cancelled (only
      // larger budgets are), so Unknown here means the conflict budget
      // ran out — the same error the sequential strategies report.
      if (Slots[I].P.Result == SolveResult::Unknown) {
        Result.Error = strFormat(
            "probe at %u cycles exceeded the conflict budget", Base + I);
        return Result;
      }
    }
    if (SatIdx) {
      const unsigned K = Base + *SatIdx;
      Result.Found = true;
      Result.Cycles = K;
      Result.Program = std::move(*Slots[*SatIdx].Prog);
      // Every budget in [MinCycles, K) carries an UNSAT answer: earlier
      // windows advanced only when fully refuted, and this window's
      // budgets below K were just checked.
      Result.LowerBoundProved = K > Opts.MinCycles;
      Result.WinningProbe =
          static_cast<int>(Result.Probes.size() - N + *SatIdx);
      return Result;
    }
    Base = End; // Whole window UNSAT: the lower bound advances past it.
  }
  Result.Error = strFormat("no program within %u cycles", Opts.MaxCycles);
  return Result;
}

/// The why-unsat explain probe: a fresh per-K instance at the budget just
/// below the found minimum, with clause tagging and core tracking on. Runs
/// after any strategy's ladder, so the report is uniform and the
/// per-strategy probe evidence stays untouched.
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

/// Dispatches on strategy; the wrapper adds the timing summary.
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

  if (Opts.Strategy == SearchStrategy::Portfolio)
    return searchPortfolio(G, Isa, U, Goals, Opts, Name);

  // Linear and binary search share one ladder for the whole compile.
  Ladder L(G, Isa, U, Goals, Opts);
  auto ProbeK = [&](unsigned K, std::optional<machine::Program> &Prog) {
    Probe P = probeBudget(L, Opts, K, Prog, Name);
    noteProbe(P);
    Result.Probes.push_back(std::move(P));
    return Result.Probes.back().Result;
  };

  if (Opts.Strategy == SearchStrategy::Linear)
    return runLinearLadder(Result, Opts, ProbeK);
  return runBinaryLadder(Result, Opts, ProbeK);
}

} // namespace

std::string denali::codegen::describeProbe(const Probe &P) {
  const char *Answer = P.Cancelled ? "cancelled"
                       : P.Result == SolveResult::Sat     ? "sat"
                       : P.Result == SolveResult::Unsat   ? "unsat"
                                                          : "unknown";
  return strFormat("K=%u[%dv/%lluc/%s]", P.Cycles, P.Stats.Vars,
                   static_cast<unsigned long long>(P.Stats.Clauses), Answer);
}

SearchResult denali::codegen::searchBudgets(
    const egraph::EGraph &G, const machine::MachineModel &Isa, const Universe &U,
    const std::vector<NamedGoal> &Goals, const SearchOptions &Opts,
    const std::string &Name) {
  static const char *const StrategyNames[] = {"linear", "binary",
                                              "portfolio"};
  obs::ObsSpan Span("search");
  Timer Wall;
  SearchResult Result = searchBudgetsImpl(G, Isa, U, Goals, Opts, Name);
  if (Opts.ExplainUnsat)
    runExplainProbe(G, Isa, U, Goals, Opts, Result);
  Result.WallSeconds = Wall.seconds();
  for (const Probe &P : Result.Probes)
    Result.CpuSeconds +=
        P.EncodeSeconds + P.SolveSeconds + P.ProofCheckSeconds;
  if (obs::enabled()) {
    if (Span.active())
      Span.arg("name", Name.c_str())
          .arg("strategy",
               StrategyNames[static_cast<unsigned>(Opts.Strategy)])
          .arg("found", Result.Found ? "yes" : "no")
          .arg("cycles", Result.Cycles)
          .arg("probes", static_cast<uint64_t>(Result.Probes.size()))
          .arg("cancelled",
               static_cast<uint64_t>(Result.CancelledProbes));
    auto &R = obs::Registry::global();
    R.counter("search.runs").add(1);
    if (Result.Found)
      R.counter("search.found").add(1);
    R.histogram("search.wall_us")
        .record(static_cast<uint64_t>(Result.WallSeconds * 1e6));
    obs::logf(1, "search %s: strategy=%s found=%d cycles=%u probes=%zu "
                 "wall=%.3fs",
              Name.c_str(),
              StrategyNames[static_cast<unsigned>(Opts.Strategy)],
              Result.Found ? 1 : 0, Result.Cycles, Result.Probes.size(),
              Result.WallSeconds);
  }
  return Result;
}
