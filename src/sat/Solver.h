//===- sat/Solver.h - CDCL SAT solver ---------------------------*- C++ -*-===//
///
/// \file
/// A conflict-driven clause-learning SAT solver: two-watched-literal
/// propagation, first-UIP conflict analysis with clause minimization,
/// VSIDS-style variable activities, phase saving, Luby restarts, and
/// activity-based learnt-clause deletion.
///
/// The solver is *incremental* in the MiniSat sense: solve() may be called
/// repeatedly (optionally under a set of assumption literals that hold for
/// that call only), clauses may be added between calls, and learnt clauses,
/// variable activities, and saved phases all persist across calls. An
/// Unsat answer under assumptions comes with the failed-assumption subset
/// (the final conflict clause), which the budget search uses to keep the
/// paper's lower-bound evidence while solving the whole probe ladder on
/// one solver instance.
///
/// This is the repository's stand-in for CHAFF (the solver the Denali
/// prototype used); the paper emphasizes that the satisfiability solver is
/// a pluggable black box behind a small interface, which this class keeps.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SAT_SOLVER_H
#define DENALI_SAT_SOLVER_H

#include "sat/SatTypes.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace denali {
namespace sat {

/// Outcome of a solve() call.
enum class SolveResult { Sat, Unsat, Unknown /* budget exhausted */ };

/// Running counters, reported by the driver and benchmarks.
struct SolverStats {
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Conflicts = 0;
  uint64_t LearntClauses = 0;
  uint64_t Restarts = 0;
  uint64_t DeletedClauses = 0;
  uint64_t SolveCalls = 0;
  /// Learnt-arena garbage collections and total words reclaimed by them
  /// (deleted learnt clauses leave holes; a long-lived incremental solver
  /// compacts them away after reduceDB).
  uint64_t ArenaCollections = 0;
  uint64_t ArenaWordsReclaimed = 0;
};

class Solver {
public:
  Solver();

  /// Creates a fresh variable and \returns it.
  Var newVar();
  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause. \returns false if the formula is already trivially
  /// unsatisfiable (empty clause, or conflicting units at level 0).
  bool addClause(const Lit *Lits, size_t Size);
  bool addClause(const ClauseLits &Lits) {
    return addClause(Lits.data(), Lits.size());
  }
  bool addClause(Lit A) { return addClause(&A, 1); }
  bool addClause(Lit A, Lit B) {
    const Lit Lits[] = {A, B};
    return addClause(Lits, 2);
  }
  bool addClause(Lit A, Lit B, Lit C) {
    const Lit Lits[] = {A, B, C};
    return addClause(Lits, 3);
  }

  /// Number of addClause() calls so far, simplified-away clauses included.
  uint64_t numClauses() const { return ProblemClauses; }

  /// Records every clause exactly as passed to addClause(), so that
  /// problemClauses() reports the caller's formula rather than the solver's
  /// simplified copy. Call before the first addClause(). Proof logging
  /// turns it on (a certificate is checked against the formula as added).
  void keepAddedClauses() { KeepAdded = true; }

  /// The problem, without any learnt clause: with keepAddedClauses(), the
  /// clauses exactly as added; otherwise the stored problem clauses after
  /// level-0 simplification plus the unit clauses added. Suitable for
  /// DIMACS export and cross-checking with external solvers.
  std::vector<ClauseLits> problemClauses() const;

  /// Limits the search effort *per solve() call*; Unknown is returned when
  /// exceeded. 0 means unlimited.
  void setConflictBudget(uint64_t Budget) { ConflictBudget = Budget; }

  /// Cooperative cancellation: solve() polls \p Flag (relaxed) at its
  /// conflict/decision/restart boundaries — the same places the conflict
  /// budget is enforced — and returns Unknown once it reads true. The flag
  /// must outlive the solve() call; pass nullptr to detach.
  void setInterrupt(const std::atomic<bool> *Flag) { Interrupt = Flag; }

  /// True if the last solve() returned Unknown because the interrupt flag
  /// fired (as opposed to exhausting the conflict budget).
  bool interrupted() const { return WasInterrupted; }

  /// After an interrupted solve(): how many conflicts the solver worked
  /// through between the last interrupt poll that read false and the poll
  /// that observed the flag. The poll runs every conflict/decision/restart
  /// boundary, so this is at most 1 — the bound SatTests asserts to keep
  /// cancellation responsive.
  uint64_t conflictsAfterInterrupt() const { return PostInterruptConflicts; }

  /// Refutation attribution: while a nonzero tag is set, every problem
  /// clause added is stamped with it (the tag lives in the header word a
  /// problem clause never uses for activity, so it survives arena
  /// compaction for free). Tag 0 means untagged. Level-0 simplification
  /// can lose tags of unit facts folded away before tracking starts — a
  /// documented limitation of this cheap scheme.
  void setClauseTag(uint32_t Tag) { CurrentTag = Tag; }

  /// Turns on clause-core tracking: conflict analysis additionally unions,
  /// per learnt clause, the tags of every clause resolved to derive it, so
  /// that an Unsat answer can report which *problem* clause tags are in the
  /// final implication cone (coreTags()). Off by default — the per-conflict
  /// set unions are not free, so only dedicated explain probes enable it.
  void enableCoreTracking() { CoreTracking = true; }

  /// After an Unsat answer with core tracking on: the sorted distinct
  /// nonzero tags of the problem clauses in the refutation cone. An
  /// attribution core (every listed clause participated in the refutation),
  /// not a minimal one.
  const std::vector<uint32_t> &coreTags() const { return CoreOut; }

  /// Enables clausal proof logging: every learnt clause is recorded in
  /// derivation order (a DRAT proof without deletions). After an Unsat
  /// answer the proof ends with the empty clause and can be validated by
  /// checkRupProof — making the budget search's "K cycles are impossible"
  /// certificates independently checkable.
  void enableProofLogging() {
    LogProof = true;
    keepAddedClauses();
  }
  const std::vector<ClauseLits> &proof() const { return Proof; }

  /// Solves the formula. Repeated calls are allowed (the solver backtracks
  /// to level 0 on return); learnt clauses, activities, and saved phases
  /// carry over, and clauses may be added between calls.
  SolveResult solve();

  /// Solves the formula under \p Assumptions: each literal is treated as a
  /// decision that must hold for this call only (no clause is added). On
  /// Unsat, conflict() holds the failed-assumption subset; if conflict()
  /// is empty the formula is unsatisfiable regardless of assumptions.
  SolveResult solve(const std::vector<Lit> &Assumptions);

  /// After an Unsat answer from solve(Assumptions): the final conflict
  /// clause, a subset of the *negated* assumptions whose disjunction is
  /// implied by the formula (MiniSat's analyzeFinal output). Empty when
  /// the formula is unsatisfiable without any assumption.
  const ClauseLits &conflict() const { return FinalConflict; }

  /// After Sat: the value assigned to \p V / \p L in the captured model
  /// (the model survives the end-of-solve backtrack and later calls until
  /// the next Sat answer overwrites it).
  bool modelValue(Var V) const;
  bool modelValue(Lit L) const;

  const SolverStats &stats() const { return Stats; }

private:
  // Clause arena: all clauses live in one uint32 buffer. A clause reference
  // is the offset of its header. Header layout:
  //   [0] size | (learnt ? LearntBit : 0)
  //   [1] activity (float bits, learnt only; problem clauses store 0)
  //   [2..2+size) literal codes
  using CRef = uint32_t;
  static constexpr CRef InvalidCRef = 0xffffffffu;
  static constexpr uint32_t LearntBit = 0x80000000u;

  std::vector<uint32_t> Arena;

  uint32_t clauseSize(CRef C) const { return Arena[C] & ~LearntBit; }
  bool clauseLearnt(CRef C) const { return Arena[C] & LearntBit; }
  Lit *clauseLits(CRef C) {
    return reinterpret_cast<Lit *>(&Arena[C + 2]);
  }
  const Lit *clauseLits(CRef C) const {
    return reinterpret_cast<const Lit *>(&Arena[C + 2]);
  }
  float clauseActivity(CRef C) const;
  void setClauseActivity(CRef C, float A);

  CRef allocClause(const ClauseLits &Lits, bool Learnt);

  struct Watcher {
    CRef Clause;
    Lit Blocker;
  };
  std::vector<std::vector<Watcher>> Watches; ///< Indexed by Lit::index().

  // Assignment trail.
  std::vector<LBool> Assigns;       ///< Current value per var.
  std::vector<uint8_t> SavedPhase;  ///< Phase saving per var.
  std::vector<int32_t> Level;       ///< Decision level per var.
  std::vector<CRef> Reason;         ///< Antecedent clause per var.
  std::vector<Lit> Trail;
  std::vector<int32_t> TrailLims;   ///< Trail index at each decision level.
  size_t PropagateHead = 0;

  // Decision heuristic (VSIDS with a binary heap).
  std::vector<double> Activity;
  std::vector<int32_t> HeapPos; ///< -1 when not in heap.
  std::vector<Var> Heap;
  double VarInc = 1.0;
  static constexpr double VarDecay = 0.95;

  // Learnt clause management.
  std::vector<CRef> Learnts;
  std::vector<CRef> Problems;
  double ClauseInc = 1.0;
  static constexpr double ClauseDecay = 0.999;
  uint64_t MaxLearnts = 0;

  // Refutation attribution (explain probes only; see setClauseTag).
  uint32_t CurrentTag = 0;
  bool CoreTracking = false;
  std::vector<uint32_t> CoreOut; ///< Final core, sorted and deduped.
  std::unordered_map<CRef, std::vector<uint32_t>> LearntTags;
  std::unordered_map<Var, std::vector<uint32_t>> UnitTags;
  std::vector<uint32_t> ResolveTags; ///< Scratch for one analyze() pass.

  uint64_t ProblemClauses = 0;
  bool KeepAdded = false;
  std::vector<ClauseLits> AddedClauses; ///< With KeepAdded: the input.
  std::vector<Lit> AddedUnits;          ///< Unit clauses (post-simplify).
  uint64_t ConflictBudget = 0;
  const std::atomic<bool> *Interrupt = nullptr;
  bool WasInterrupted = false;
  uint64_t PostInterruptConflicts = 0;
  bool Unsatisfiable = false;
  SolverStats Stats;
  bool LogProof = false;
  std::vector<ClauseLits> Proof;
  std::vector<uint8_t> Model;   ///< Snapshot of the last Sat assignment.
  ClauseLits FinalConflict;     ///< Failed assumptions of the last Unsat.
  uint64_t WastedArenaWords = 0; ///< Holes left by deleted learnt clauses.

  // Scratch for addClause() (normalized input, surviving literals).
  ClauseLits AddSorted, AddKept;

  // Scratch for analyze(). A variable's mark is SeenSource while it is in
  // the learnt clause; during minimization (litRedundant) it may become
  // SeenRemovable or SeenFailed, a verdict that holds until analyze()
  // clears every mark on SeenToClear.
  enum : uint8_t { SeenNone = 0, SeenSource, SeenRemovable, SeenFailed };
  std::vector<uint8_t> SeenFlags;
  std::vector<Var> SeenToClear;
  /// litRedundant's DFS path: a variable and the index of the next
  /// literal of its reason to visit.
  struct RedundantFrame {
    Var V;
    uint32_t Next;
  };
  std::vector<RedundantFrame> RedundantStack;

  LBool value(Lit L) const {
    LBool V = Assigns[L.var()];
    return L.negative() ? lboolNot(V) : V;
  }

  int decisionLevel() const { return static_cast<int>(TrailLims.size()); }

  void enqueue(Lit L, CRef From);
  CRef propagate();
  void attachClause(CRef C);
  void detachClause(CRef C);
  void analyze(CRef Confl, ClauseLits &Learnt, int &BacktrackLevel);
  void analyzeFinal(Lit P);
  void noteClauseTags(CRef C, std::vector<uint32_t> &Out) const;
  void noteUnitTags(Var V, std::vector<uint32_t> &Out) const;
  void collectLevel0Core(CRef Confl);
  void collectLevel0VarCore(Var Start);
  void level0CoreBfs(std::vector<Var> &Queue);
  void finalizeCore();
  void captureModel();
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  void backtrack(int ToLevel);
  Lit pickBranchLit();

  void varBumpActivity(Var V);
  void varDecayActivity();
  void claBumpActivity(CRef C);
  void claDecayActivity();
  void heapInsert(Var V);
  void heapPercolateUp(int Pos);
  void heapPercolateDown(int Pos);
  Var heapRemoveMax();
  void reduceDB();
  void compactArena();

  static uint64_t luby(uint64_t I);
};

} // namespace sat
} // namespace denali

#endif // DENALI_SAT_SOLVER_H
