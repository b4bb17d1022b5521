//===- codegen/Search.h - Cycle-budget search -------------------*- C++ -*-===//
///
/// \file
/// The outer loop of the obvious approach (paper, section 1.3): probe cycle
/// budgets K, submitting "no K-cycle program computes the goals" to the SAT
/// solver. UNSAT proves the lower bound K+1; SAT yields the program.
///
/// Budgets are probed upward on one solver per compile (the ladder): a
/// probe at K appends the cycle layers the solver still lacks and solves
/// under the budget assumption ¬E_K (see Encoder), so every layer is
/// encoded once and learnt clauses carry from probe to probe. Probing
/// starts one below the static critical-path bound (Encoder::criticalPath,
/// under which every budget fails its deadline outright), or at MinCycles
/// if that is higher: the first probe is then still a refutation below the
/// answer, which the lower-bound proof and the why-unsat probe need. The
/// paper uses binary search but notes probe costs are far from constant;
/// measured on the paper's kernels, neither binary search nor a parallel
/// portfolio of budgets beat the ladder (EXPERIMENTS.md E23). The fresh
/// per-K instance stays as the reference the tests hold the ladder to.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_CODEGEN_SEARCH_H
#define DENALI_CODEGEN_SEARCH_H

#include "codegen/Encoder.h"

namespace denali {
namespace codegen {

struct SearchOptions {
  /// Lowest budget probed; values below 1 are treated as 1. Probing starts
  /// at max(MinCycles, critical path - 1), so a floor below that has no
  /// effect.
  unsigned MinCycles = 1;
  unsigned MaxCycles = 24;
  /// Probe every budget on a fresh per-K instance instead of the ladder.
  /// This is the reference the ladder is checked against; it may return a
  /// different program at the same K.
  bool FreshPerK = false;
  /// Per-probe conflict budget (0 = unlimited).
  uint64_t ConflictBudget = 0;
  /// If nonempty, each probe's CNF is written to
  /// <DumpCnfDir>/<name>.K<cycles>.cnf in DIMACS format (for cross-checking
  /// with external solvers — the paper swapped SAT solvers freely): the
  /// clauses on the probe's solver as they were added, with the budget
  /// assumption as the final unit clause. A dump that cannot be written
  /// ends the search with an error naming the file.
  std::string DumpCnfDir;
  /// Certify refutations: every UNSAT probe logs a clausal proof which is
  /// re-validated by the independent RUP checker, upgrading "the solver
  /// said K cycles are impossible" to a machine-checked certificate. The
  /// formula is the clauses as added plus the budget assumption as a unit;
  /// the derivation is the solver's learnt-clause log (cumulative on a
  /// ladder) ending in the final assumption conflict.
  bool CertifyRefutations = false;
  /// After the ladder pins the minimal feasible K with K > MinCycles, run
  /// one extra probe at K-1 on a fresh per-K instance with clause tagging
  /// and core tracking enabled, and report which clause families refuted
  /// it (SearchResult::WhyUnsatTags). The search's own probes are
  /// untouched.
  bool ExplainUnsat = false;
  EncoderOptions Encoding;
};

/// One SAT probe (a row of the byteswap4 problem-size report).
struct Probe {
  unsigned Cycles = 0;
  sat::SolveResult Result = sat::SolveResult::Unknown;
  /// What this probe added to its solver: the missing cycle layers and the
  /// budget-K deadline on a ladder, the whole instance on a fresh solver.
  EncodingStats Stats;
  double EncodeSeconds = 0;
  double SolveSeconds = 0;
  /// Conflicts spent on this probe (a per-call delta: a ladder's solver
  /// counters are cumulative).
  uint64_t Conflicts = 0;
  /// With CertifyRefutations, for UNSAT probes: proof length and whether
  /// the RUP checker accepted it.
  size_t ProofSteps = 0;
  bool ProofChecked = false;
  double ProofCheckSeconds = 0;
  /// Solver effort spent on this probe (per-call deltas).
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t LearntClauses = 0;
  /// Size of the failed-assumption set of an Unsat answer
  /// (Solver::conflict()).
  size_t FailedAssumptions = 0;
};

/// One probe as a compact report cell, e.g. "K=5[1639v/4613c/sat]" — the
/// shared formatter behind the CLI's --stats ladder and the benches.
std::string describeProbe(const Probe &P);

/// The search outcome.
struct SearchResult {
  bool Found = false;
  std::string Error; ///< Set when !Found.
  machine::Program Program;
  unsigned Cycles = 0; ///< Minimal feasible budget found.
  /// True if some strictly smaller budget was *proved* infeasible (the
  /// paper's optimality certificate); false if the first budget probed
  /// was feasible immediately.
  bool LowerBoundProved = false;
  std::vector<Probe> Probes;
  /// Wall-clock duration of the whole budget search.
  double WallSeconds = 0;
  /// With SearchOptions::ExplainUnsat: the attribution core of the K-1
  /// refutation — sorted distinct clause tags (see makeClauseTag) naming
  /// the constraint families that make one cycle fewer impossible. Empty
  /// when no explain probe ran (MinCycles was feasible, or the probe did
  /// not confirm Unsat).
  std::vector<uint32_t> WhyUnsatTags;
  /// The budget the explain probe refuted (Cycles - 1; 0 when none ran).
  unsigned WhyUnsatCycles = 0;
  /// The critical-path bound (Encoder::criticalPath()): no budget below it
  /// has a program. Encoder::Never when some goal can never be computed; 0
  /// when every goal is free and no encoder ran.
  unsigned CriticalPath = 0;
};

/// Finds the minimal-cycle program for \p Goals.
SearchResult searchBudgets(const egraph::EGraph &G, const machine::MachineModel &Isa,
                           const Universe &U,
                           const std::vector<NamedGoal> &Goals,
                           const SearchOptions &Opts,
                           const std::string &Name);

} // namespace codegen
} // namespace denali

#endif // DENALI_CODEGEN_SEARCH_H
