//===- match/Matcher.h - E-matching and saturation --------------*- C++ -*-===//
///
/// \file
/// The matching phase (paper, section 5): repeatedly finds instances of the
/// axioms in the E-graph and asserts them, until a quiescent state is
/// reached (or fuel limits stop it — the paper's caveat about heuristics
/// that keep the matcher from running forever, its first reason for saying
/// "near-optimal").
///
/// E-matching searches whole equivalence classes: the pattern k * 2**n
/// matches reg6 * 4 once 4's class also contains 2**2 — precisely the
/// Figure 2 scenario. A class is searched through its operator view
/// (EGraph::forEachClassNodeWithOp), which each round refreshes before it
/// enumerates: the members with the pattern's operator, in member order.
///
/// Scaling machinery (Caviar-style saturation scheduling):
///   * **Semi-naive matching** — an axiom whose last round enumerated every
///     match (it was active and nothing cut it short) next matches only
///     from trigger roots within trigger height of a node the graph's
///     change log recorded since then, and reports only matches through
///     a logged node. Every other match has the bindings it had last
///     round, so it is already in the done set: the instances queued are
///     those a full scan would queue, in the same order.
///   * **Deferred rebuilding** — saturate() switches the graph into
///     egraph::RebuildMode::Deferred and batches congruence repair into one
///     rebuild() per round instead of one per asserted instance.
///   * **Match budgets with backoff** — an axiom whose raw matches overflow
///     its per-round budget is truncated, sits out the next round, and
///     returns with a doubled budget.
///   * **Phased rule sets** — cheap simplification axioms saturate first;
///     expansive axioms (a side materially larger than the other, e.g.
///     k*x -> shifts/adds) join once the cheap phase quiesces.
///
/// Each round is one pass over the active axioms' triggers, in (axiom,
/// trigger) order, against the graph as the round found it: a match is
/// queued where it is found, unless the done set already holds it, and
/// the queued instances are asserted once every axiom has matched.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_MATCH_MATCHER_H
#define DENALI_MATCH_MATCHER_H

#include "egraph/EGraph.h"
#include "match/Axiom.h"
#include "obs/ProfileLedger.h"

#include <functional>
#include <string>
#include <vector>

namespace denali {
namespace match {

/// Fuel limits and scheduling knobs for saturation.
struct MatchLimits {
  unsigned MaxRounds = 24;
  size_t MaxNodes = 60000;          ///< Stop instantiating past this size.
  /// Instances queued per round. The first axiom match it leaves out
  /// stops that axiom's enumeration for the round.
  size_t MaxInstancesPerRound = 200000;
  /// Per-axiom, per-round raw-match budget, across all the axiom's
  /// triggers; 0 = unlimited (scheduler inert). An axiom stops enumerating
  /// at raw match budget + 1, which proves the overflow; overflowing
  /// axioms back off for a round and double their budget
  /// (`--match-budget`).
  uint64_t MatchBudget = 0;
  /// Phase the rule set: expansive axioms wait until the cheap phase
  /// quiesces (`--match-phases`).
  bool Phased = false;
  /// Restore the pre-scheduling behavior: congruence repair after every
  /// asserted instance instead of one batched rebuild per round (the
  /// reference of the EagerDeferredEquivalence tests and the
  /// bench_egraph_scale A/B; no flag sets it).
  bool EagerRebuild = false;
  /// History-driven scheduling (`--match-adaptive`): seed per-axiom
  /// budgets and phase assignment from Ledger's rows under LedgerKey
  /// instead of uniform budgets + blind doubling. Axioms without history
  /// keep the PR 6 defaults; a null/empty ledger is exactly PR 6
  /// behavior. Scheduling may reorder work, never change the saturated
  /// graph: held-back work re-enters through the same backoff /
  /// phase-advance machinery, so a run to quiescence reaches the
  /// identical closure whatever the ledger says.
  bool Adaptive = false;
  const obs::ProfileLedger *Ledger = nullptr;
  /// The ledger's graph key for this workload (the driver passes
  /// driver::profileLedgerKey()).
  std::string LedgerKey;
};

/// Statistics of one saturation run.
struct MatchStats {
  unsigned Rounds = 0;
  /// Matches enumerated: every match of a full scan, and only the matches
  /// through a changed node of a semi-naive one. An axiom cut short by its
  /// budget counts budget + 1; one cut by the instance cap counts up to its
  /// first match left out.
  uint64_t MatchesFound = 0;
  /// Matches dropped as already queued, this round or an earlier one.
  uint64_t InstancesDeduped = 0;
  uint64_t InstancesAsserted = 0;
  size_t FinalNodes = 0;
  size_t FinalClasses = 0;
  /// True if a round that the node cap did not cut produced no change.
  bool Quiesced = false;
  // Scheduling decisions (surfaced as match.sched.* obs counters).
  uint64_t BudgetOverflows = 0; ///< Axiom-rounds truncated at their budget.
  uint64_t BudgetSkips = 0;     ///< Axiom-rounds sat out by backoff.
  uint64_t PhaseAdvances = 0;   ///< Times the active phase widened.
  // Graph-side work, as deltas of egraph::RebuildStats over the run.
  uint64_t Merges = 0;
  uint64_t CongruenceMerges = 0;
  uint64_t ConstantFolds = 0;
  uint64_t Rebuilds = 0;
  // Adaptive scheduling decisions (--match-adaptive; 0 when off).
  uint64_t AdaptiveSeeded = 0;  ///< Axioms whose budget came from history.
  uint64_t AdaptiveDemoted = 0; ///< Never-productive axioms demoted.
  /// Per-axiom attribution, indexed like Matcher::axioms(); also the
  /// match.axiom.* counters. Raw / Instances / Merges / Overflows /
  /// Skips / First-LastRound are deterministic for a fixed workload; the
  /// *Ns fields are wall time.
  std::vector<obs::AxiomProfile> PerAxiom;
};

/// An elaboration hook run once per round before matching; used for
/// "heuristically relevant" constant facts (4 = 2**2, byte-regular masks)
/// and the base+offset disequality oracle.
using Elaborator = std::function<void(egraph::EGraph &)>;

/// The (axiom index, canonical bindings) pairs a matcher has queued. The
/// pairs sit one after another in a flat arena (the axiom index, then its
/// bindings), found through a HashIndex of their arena offsets, so adding
/// or finding a pair allocates nothing but arena growth.
class InstanceSet {
public:
  /// The hash the pair is filed under. A caller that finds and then
  /// inserts one pair computes it once and passes it to both.
  static uint32_t hash(uint32_t AxiomIdx, const egraph::ClassId *Bindings,
                       size_t NumBindings);
  /// The arena offset of the pair's bindings, or egraph::HashIndex::None.
  uint32_t find(uint32_t AxiomIdx, const egraph::ClassId *Bindings,
                size_t NumBindings) const {
    return find(hash(AxiomIdx, Bindings, NumBindings), AxiomIdx, Bindings,
                NumBindings);
  }
  /// find() with the pair's hash() already computed.
  uint32_t find(uint32_t Hash, uint32_t AxiomIdx,
                const egraph::ClassId *Bindings, size_t NumBindings) const;
  /// Adds the pair, which must be absent. \returns its bindings' offset.
  uint32_t insert(uint32_t AxiomIdx, const egraph::ClassId *Bindings,
                  size_t NumBindings) {
    return insert(hash(AxiomIdx, Bindings, NumBindings), AxiomIdx, Bindings,
                  NumBindings);
  }
  /// insert() with the pair's hash() already computed.
  uint32_t insert(uint32_t Hash, uint32_t AxiomIdx,
                  const egraph::ClassId *Bindings, size_t NumBindings);
  /// Removes the pair if present; its arena entry stays behind.
  void erase(uint32_t AxiomIdx, const egraph::ClassId *Bindings,
             size_t NumBindings);
  /// The bindings at \p Offset; valid until the next insert().
  const egraph::ClassId *bindings(uint32_t Offset) const {
    return Arena.data() + Offset;
  }

private:
  std::vector<egraph::ClassId> Arena;
  egraph::HashIndex Index; ///< Arena offsets of the pairs' axiom indices.
};

class Matcher {
public:
  /// Borrows \p Axioms, which must outlive the matcher.
  explicit Matcher(const std::vector<Axiom> &Axioms) : Axioms(Axioms) {}
  /// A temporary axiom list would dangle; name it instead.
  explicit Matcher(std::vector<Axiom> &&) = delete;

  /// Adds an elaboration hook.
  void addElaborator(Elaborator E) { Elaborators.push_back(std::move(E)); }

  const std::vector<Axiom> &axioms() const { return Axioms; }

  /// Saturates \p G. \returns the run's statistics.
  MatchStats saturate(egraph::EGraph &G,
                      const MatchLimits &Limits = MatchLimits());

  /// The scheduling phase of \p A: 0 for cheap simplification axioms,
  /// 1 for expansive ones (some equality side at least two operator
  /// applications larger than the other — the shape of decompositions
  /// like k*x -> shifts/adds that blow the graph up).
  static unsigned axiomPhase(const Axiom &A);

  /// The ledger/metrics identity of axiom \p Idx: "<name>#<index>".
  /// Axiom::Name alone is positional within its source text, so the math
  /// and alpha builtin sets can collide on name; the index pins the id
  /// within a fixed axiom set (builtins first, program axioms appended in
  /// program order — stable across runs of the same workload).
  static std::string axiomLedgerId(const Axiom &A, size_t Idx);

private:
  const std::vector<Axiom> &Axioms;
  std::vector<Elaborator> Elaborators;

  // Instance dedup: (axiom index, canonical bindings) already queued in
  // some round. Entries are added when queued; the node cap's cut-offs are
  // taken back out so a later round can find them again.
  InstanceSet Done;

  // Scratch stacks of lookup() and instantiate(), reused across
  // instances: a pattern walk's frames and the classes of its finished
  // subpatterns.
  std::vector<std::pair<PatternId, size_t>> WalkStack;
  std::vector<egraph::ClassId> WalkValues;

  /// \p Bindings holds one class per variable of \p A, here and below.
  egraph::ClassId instantiate(egraph::EGraph &G, const Axiom &A, PatternId P,
                              const egraph::ClassId *Bindings);

  /// The class pattern \p P denotes under \p Bindings when every node it
  /// needs already exists; std::nullopt when instantiate() would add one.
  std::optional<egraph::ClassId> lookup(const egraph::EGraph &G,
                                        const Axiom &A, PatternId P,
                                        const egraph::ClassId *Bindings);

  /// Asserts one axiom instance. An instance whose nodes all exist and
  /// whose literal (or some clause literal) already holds is answered by
  /// hash-cons lookups alone. \p AxiomIdx and \p Round feed the
  /// provenance justification when the graph records proofs. \returns true
  /// if anything changed.
  bool assertInstance(egraph::EGraph &G, const Axiom &A, uint32_t AxiomIdx,
                      unsigned Round, const egraph::ClassId *Bindings);
};

/// Returns the standard elaborators: powers of two (enables k*2**n matches)
/// and byte-regular masks (enables zapnot), plus the base+offset
/// disequality oracle for memory indices.
std::vector<Elaborator> standardElaborators();

/// Records one saturation run's per-axiom attribution into \p Ledger under
/// \p GraphKey: one row (Runs=1) per non-ground axiom — all-zero rows
/// included, so "matched nothing across N runs" is itself history the
/// adaptive scheduler can demote on.
void recordMatchProfile(obs::ProfileLedger &Ledger,
                        const std::string &GraphKey,
                        const std::vector<Axiom> &Axioms,
                        const MatchStats &Stats);

} // namespace match
} // namespace denali

#endif // DENALI_MATCH_MATCHER_H
