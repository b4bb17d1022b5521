//===- codegen/Encoder.h - E-graph -> SAT constraint generation -*- C++ -*-===//
///
/// \file
/// The constraint generator (paper, section 6): formulates "some K-cycle
/// EV6 program computes all the goal classes" as propositional clauses over
///
///   L(t, u, i) — a computation of machine term t is Launched on unit u at
///                the beginning of cycle i;
///   B(q, c, i) — the value of class q has been computed By the end of
///                cycle i, on cluster c.
///
/// The paper's five conditions appear as:
///   1. launch/completion linkage — folded into the B definition (the
///      paper's A variables are eliminated by inlining the latency);
///   2. operands before launch — L(t,u,i) => B(arg, cluster(u), i-1);
///   3. class computed iff some member computed — the B iff-definition;
///   4. issue exclusivity — at-most-one launch per (cycle, unit), which on
///      the quad-issue EV6 also bounds the per-cycle total at 4;
///   5. goals computed within K cycles — B(goal, *, K-1).
///
/// Additional constraints (paper, section 7): guard-before-unsafe-operation
/// ordering, and memory discipline (loads of a memory state may not follow
/// the store that overwrites it; each store launches at most once).
///
/// The constraints are emitted one cycle layer at a time. The clauses of
/// layer I mention only cycles <= I, so a layer is final once added, and
/// one solver serves a whole budget ladder: probing budget K appends the
/// layers still missing below K plus a budget-K deadline gated by E_K
/// ("some instruction finishes after cycle K"), then solves under the
/// assumption ¬E_K. A fresh solver given the same calls is the per-K
/// reference instance.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_CODEGEN_ENCODER_H
#define DENALI_CODEGEN_ENCODER_H

#include "codegen/Universe.h"
#include "machine/Program.h"
#include "sat/Encodings.h"
#include "sat/Solver.h"

#include <optional>
#include <unordered_map>

namespace denali {
namespace codegen {

/// Options of one encoder; fixed for the lifetime of its ladder.
struct EncoderOptions {
  sat::AtMostOneStyle AmoStyle = sat::AtMostOneStyle::Ladder;
  /// Ablation: model a single cluster (no cross-cluster delay, B indexed
  /// by one cluster).
  bool SingleCluster = false;
  /// If set, loads and stores may only launch after this class (the GMA
  /// guard) has been computed.
  std::optional<egraph::ClassId> GuardClass;
  /// Refutation attribution: stamp every emitted clause with a ClauseFamily
  /// tag (Solver::setClauseTag) so an UNSAT core can be folded into a
  /// bottleneck report. Off by default — only dedicated explain probes pay
  /// for it.
  bool TagClauses = false;
};

/// Families a CNF clause can belong to, for refutation attribution. The
/// values match the EncodingStats per-family counters.
enum class ClauseFamily : uint32_t {
  None = 0,
  Definition = 1,  ///< Condition 3: B iff-definitions.
  Operand = 2,     ///< Condition 2: operands before launch.
  Exclusivity = 3, ///< Condition 4: issue exclusivity.
  Deadline = 4,    ///< Condition 5: goal deadlines.
  Guard = 5,       ///< Section 7: guard-before-unsafe.
  Memory = 6,      ///< Section 7: memory discipline.
  Gating = 7,      ///< The E_K budget gates: chain and launch clauses.
};

/// What a clause-tag field decodes to when its value did not fit.
constexpr unsigned TagUnknown = ~0u;

/// Packs a clause tag: family in bits 28-31, cycle+1 in bits 20-27 (0 =
/// not cycle-specific), unit index+1 in bits 16-19 (0 = not unit-specific),
/// and a 16-bit family-specific detail (term index, class id, or goal
/// index). A value too large for its field stores the field's all-ones
/// pattern, which decodes as TagUnknown instead of wrapping onto another
/// cycle, unit, or term. Nonzero whenever the family is.
inline uint32_t makeClauseTag(ClauseFamily F, unsigned Cycle = ~0u,
                              unsigned UnitIdx = ~0u, uint32_t Detail = 0) {
  auto fit = [](uint64_t V, uint32_t Mask) {
    return V < Mask ? static_cast<uint32_t>(V) : Mask;
  };
  uint32_t T = static_cast<uint32_t>(F) << 28;
  if (Cycle != ~0u)
    T |= fit(uint64_t(Cycle) + 1, 0xffu) << 20;
  if (UnitIdx != ~0u)
    T |= fit(uint64_t(UnitIdx) + 1, 0xfu) << 16;
  return T | fit(Detail, 0xffffu);
}
inline ClauseFamily tagFamily(uint32_t T) {
  return static_cast<ClauseFamily>(T >> 28);
}
inline bool tagHasCycle(uint32_t T) { return ((T >> 20) & 0xffu) != 0; }
inline bool tagHasUnit(uint32_t T) { return ((T >> 16) & 0xfu) != 0; }
// The decoders return TagUnknown for a field that did not fit.
inline unsigned tagCycle(uint32_t T) {
  uint32_t F = (T >> 20) & 0xffu;
  return F == 0xffu ? TagUnknown : F - 1;
}
inline unsigned tagUnit(uint32_t T) {
  uint32_t F = (T >> 16) & 0xfu;
  return F == 0xfu ? TagUnknown : F - 1;
}
inline unsigned tagDetail(uint32_t T) {
  uint32_t F = T & 0xffffu;
  return F == 0xffffu ? TagUnknown : F;
}

/// Human-readable family name ("operand", "exclusivity", ...).
const char *clauseFamilyName(ClauseFamily F);

/// Size statistics of what one Encoder::prepareBudget call added to its
/// solver (for a fresh solver, the whole instance — the paper reports
/// byteswap4's K=4 instance as "1639 variables and 4613 clauses").
struct EncodingStats {
  unsigned Cycles = 0; ///< The budget prepared.
  unsigned Layers = 0; ///< Cycle layers this call added.
  int Vars = 0;
  uint64_t Clauses = 0;
  size_t MachineTerms = 0;
  size_t Classes = 0;
  // Per-family clause counts (they sum to Clauses): the paper's five
  // conditions plus the section-7 extensions and the budget gates.
  uint64_t DefinitionClauses = 0;  ///< Condition 3: B iff-definitions.
  uint64_t OperandClauses = 0;     ///< Condition 2: operands before launch.
  uint64_t ExclusivityClauses = 0; ///< Condition 4: issue exclusivity.
  uint64_t DeadlineClauses = 0;    ///< Condition 5: goal deadlines.
  uint64_t GuardClauses = 0;       ///< Section 7: guard-before-unsafe.
  uint64_t MemoryClauses = 0;      ///< Section 7: memory discipline.
  uint64_t GatingClauses = 0;      ///< E_K chain and launch gates.
};

/// A named goal: GMA target name -> class to compute.
struct NamedGoal {
  std::string Target;
  egraph::ClassId Class;
  bool IsMemory = false;
};

/// Encodes the universe into one solver, a cycle layer at a time, and
/// decodes its models into programs.
///
/// Layer I holds the launch variables L(*, *, I) and the availability
/// variables B(*, *, I), with the clauses of every family that constrain
/// cycle I: definitions of B(*, *, I), operands and guard of the launches
/// at I, issue exclusivity at I, the memory discipline of the launches at I
/// against earlier cycles, and the gates L(t, u, I) -> E_{I+latency-1}.
/// The budget literals E_1, E_2, ... form one chain E_{N+1} -> E_N, created
/// as far as the gates and deadlines need. Under ¬E_K no instruction
/// finishes after cycle K, so every launch at cycle >= K is false, and the
/// constraints restricted to cycles < K are exactly the budget-K encoding,
/// whatever layers beyond K the solver already holds.
///
/// Scheduling windows: the encoder computes once, from the operand and
/// producer structure alone, the earliest cycle each (term, unit) can
/// launch and each (row, cluster) can be available, and creates L and B
/// variables only from those cycles on. Every literal left out is one unit
/// propagation fixes false on the full encoding, so the schedules and the
/// minimal budget are those of the full encoding.
class Encoder {
public:
  Encoder(const egraph::EGraph &G, const machine::MachineModel &M,
          const Universe &U, const std::vector<NamedGoal> &Goals,
          const EncoderOptions &Opts, sat::Solver &S);

  /// A window that never opens.
  static constexpr unsigned Never = ~0u;

  /// The static lower bound on the budget (the critical path), at least 1:
  /// one more than the latest goal's earliest availability. Every budget
  /// below it is refuted by its deadline alone. Never when some goal can
  /// never be computed.
  unsigned criticalPath() const { return CriticalPath; }

  /// The earliest cycle term \p Term can launch on unit \p Un (Never when
  /// it cannot launch there).
  unsigned earliestLaunch(uint32_t Term, machine::UnitId Un) const {
    return LaunchFrom[size_t(Term) * NumUnits + Un];
  }

  /// Makes budget \p K (>= 1) ready to solve: appends the cycle layers
  /// still missing below K and the gated budget-K deadline. \returns what
  /// this call added (nothing when K was prepared before).
  EncodingStats prepareBudget(unsigned K);

  /// The assumption meaning "no program longer than \p K cycles" (¬E_K: it
  /// forbids every instruction finishing after cycle K and activates the
  /// budget-K deadline). Valid after prepareBudget(K).
  sat::Lit budgetAssumption(unsigned K) const;

  /// Cycle layers on the solver so far.
  unsigned layers() const { return Layers; }

  /// After a Sat solve() under budgetAssumption(\p K): reads the schedule
  /// off the model (the L's assigned true determine the machine program,
  /// section 6) and wires operands into a K-cycle Program.
  machine::Program extract(unsigned K, const std::string &Name) const;

private:
  /// One producer of a class: launching Term on Unit completes on the
  /// cluster in question Offset cycles after its launch cycle.
  struct ProducerLink {
    uint32_t Term;
    machine::UnitId Unit;
    unsigned Offset;
  };
  /// A load that may not launch after the store overwriting its memory
  /// (Store indexes Stores).
  struct AntiDependence {
    uint32_t Load, Store;
  };

  const egraph::EGraph &G;
  const machine::MachineModel &M;
  const Universe &U;
  const std::vector<NamedGoal> Goals;
  const EncoderOptions Opts;
  sat::Solver &S;
  const unsigned NumUnits;
  const unsigned NumClusters;

  // Universe facts, resolved once so that no layer does a class lookup.
  // A row is one distinct needed class (the B variables' first index).
  std::vector<egraph::ClassId> RowClass;
  std::vector<ProducerLink> Links;    ///< Grouped by (row, cluster).
  std::vector<uint32_t> LinksBegin;   ///< (row, cluster) -> first link.
  std::vector<std::vector<uint32_t>> OperandRows; ///< Per term.
  std::vector<int32_t> GoalRows;      ///< Per goal; -1 = free goal.
  int32_t GuardRow = -1;
  std::vector<uint32_t> Stores;
  std::vector<AntiDependence> AntiDeps;

  // Scheduling windows: the first cycle of each launch, (term, unit), and
  // of each availability, (row, cluster); Never when it never opens.
  std::vector<unsigned> LaunchFrom;
  std::vector<unsigned> ReadyFrom;
  unsigned CriticalPath = 1;

  // Variables, layer-major so that a layer appends one block: L is
  // (cycle, term, unit), B is (cycle, row, cluster); -1 marks a variable
  // outside its window (or a unit the term cannot issue on). E_K is
  // ExceedVars[K] (index 0 unused; see exceed()).
  unsigned Layers = 0;
  std::vector<sat::Var> LVars;
  std::vector<sat::Var> BVars;
  std::vector<sat::Var> ExceedVars;
  /// Per store: "launched at some cycle < Layers" (-1 before layer 0).
  std::vector<sat::Var> StoreLaunched;
  std::vector<bool> DeadlineAdded; ///< Indexed by budget.

  sat::Var lVar(uint32_t Term, unsigned Unit, unsigned Cycle) const {
    return LVars[(size_t(Cycle) * U.terms().size() + Term) * NumUnits +
                 Unit];
  }
  sat::Var bVar(uint32_t Row, unsigned Cluster, unsigned Cycle) const {
    return BVars[(size_t(Cycle) * RowClass.size() + Row) * NumClusters +
                 Cluster];
  }
  unsigned clusterOfUnit(machine::UnitId Un) const {
    return Opts.SingleCluster ? 0 : M.clusterOf(Un);
  }
  void tag(ClauseFamily F, unsigned Cycle, unsigned Unit, uint32_t Detail) {
    if (Opts.TagClauses)
      S.setClauseTag(makeClauseTag(F, Cycle, Unit, Detail));
  }

  /// Fills LaunchFrom, ReadyFrom and CriticalPath.
  void computeWindows();
  void addLayer(EncodingStats &Stats);
  void addDeadline(unsigned K, EncodingStats &Stats);
  /// E_K, creating the chain up to it.
  sat::Lit exceed(unsigned K);
};

} // namespace codegen
} // namespace denali

#endif // DENALI_CODEGEN_ENCODER_H
