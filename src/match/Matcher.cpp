//===- match/Matcher.cpp --------------------------------------------------===//

#include "match/Matcher.h"

#include "match/Elaborate.h"
#include "obs/Obs.h"
#include "support/Error.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace denali;
using namespace denali::match;
using namespace denali::egraph;

namespace {

/// Runs a trigger's match program (Axiom::TriggerPrograms) from each of
/// its root nodes. Matches are reported as they are found; the engine
/// never mutates the graph (matches are queued and instantiated
/// afterwards).
///
/// The program's steps run forward until one fails or the program ends,
/// which is a match; then the search backtracks to the latest Bind step
/// that still has candidates and runs forward from it again. Steps are in
/// pre-order and each Bind step walks its class's candidates in view
/// order, so matches come out depth first, left to right, and a report
/// that stops the search (a budget, the instance cap) always stops it at
/// the same match. Nothing here recurses, and nothing allocates once the
/// registers have grown to the longest program; one engine serves a
/// whole saturation.
///
/// A semi-naive run (a non-null \p Steps table, see DeltaSteps) reports
/// only the matches that use some logged node. Given the roots a full scan
/// would visit near the log, in the same order, it reports their matches
/// through logged nodes in the order the full scan finds them.
class MatchEngine {
public:
  explicit MatchEngine(const EGraph &G) : G(G) {}

  /// Runs trigger \p Trigger of \p Axm from \p Roots: G.nodesWithOp(trigger
  /// op), or the semi-naive roots within it, in the same order.
  /// \p Report(bindings) returns false to stop the enumeration (budget
  /// caps). The graph's operator views must be fresh.
  template <typename ReportFn>
  void run(const Axiom &Axm, size_t Trigger, const std::vector<ENodeId> &Roots,
           const uint32_t *StepTable, ReportFn &&Report) {
    const PatternProgram P = Axm.TriggerPrograms[Trigger];
    Prog = Axm.steps(P);
    Len = P.Size;
    Steps = StepTable;
    Bindings.resize(Axm.VarNames.size());
    if (Regs.size() < Len + 1) {
      Regs.resize(Len + 1);
      Left.resize(Len);
      LoggedAt.resize(Len);
    }
    // The engine only reads the graph and the report only queues, so the
    // root list and the views are stable here. Retired roots are skipped.
    for (ENodeId Root : Roots)
      if (G.node(Root).Alive && !matchFrom(Root, Report))
        return;
  }

private:
  const EGraph &G;
  const PatternStep *Prog = nullptr;
  uint32_t Len = 0;
  const uint32_t *Steps = nullptr;
  std::vector<ClassId> Bindings;
  /// By register: the root, then the node each Bind step holds.
  std::vector<ENodeId> Regs;
  /// By step, for Bind steps on the path: the candidates not yet given up,
  /// the one held first, and whether the one held is logged.
  std::vector<EGraph::OpRange> Left;
  std::vector<uint8_t> LoggedAt;

  bool logged(ENodeId N) const { return Steps && Steps[N] == 0; }

  /// Puts Bind step \p I's current candidate in its register.
  /// \returns 1 if that node is logged.
  unsigned hold(uint32_t I) {
    const ENodeId N = Left[I].First->Node;
    Regs[I + 1] = N;
    return LoggedAt[I] = logged(N);
  }

  /// Enumerates the matches rooted at \p Root. \returns false once
  /// \p Report has asked to stop.
  template <typename ReportFn> bool matchFrom(ENodeId Root, ReportFn &Report) {
    using Kind = PatternStep::Kind;
    Regs[0] = Root;
    unsigned LoggedOnPath = logged(Root); // Logged nodes on the path.
    uint32_t I = 0;
    for (;;) {
      bool Ok = true;
      for (; I < Len; ++I) {
        const PatternStep &S = Prog[I];
        const ClassId C = G.find(G.node(Regs[S.Node]).Children[S.Slot]);
        if (S.TheKind == Kind::Bind) {
          // E-matching proper: the class's nodes with the step's operator
          // (Figure 2's 2**2 inside 4's class), from its operator view.
          Left[I] = G.opView(C, static_cast<ir::OpId>(S.Value));
          Ok = Left[I].First != Left[I].Last;
          if (Ok)
            LoggedOnPath += hold(I);
        } else if (S.TheKind == Kind::Var) {
          if (S.Repeat)
            Ok = Bindings[S.Value] == C;
          else
            Bindings[S.Value] = C;
        } else {
          const std::optional<uint64_t> K = G.classConstant(C);
          Ok = K && *K == S.Value;
        }
        if (!Ok)
          break;
      }
      if (Ok && (!Steps || LoggedOnPath) && !Report(Bindings.data()))
        return false;
      // Backtrack: resume the latest Bind step before step I that still
      // has candidates; the steps after it run again.
      for (;;) {
        if (I == 0)
          return true;
        --I;
        if (Prog[I].TheKind != Kind::Bind)
          continue;
        LoggedOnPath -= LoggedAt[I];
        if (++Left[I].First != Left[I].Last)
          break;
      }
      LoggedOnPath += hold(I);
      ++I;
    }
  }
};

/// Parent-step distances from the graph's change log, for semi-naive
/// matching: step(n) is the fewest parent-list steps from live node n
/// down to a logged live node (0 = logged itself), or Far when the walk
/// did not reach n. A match that uses a logged node at pattern depth d
/// has its root exactly d steps above it, so the roots a trigger of
/// height h needs are those with step <= h - 1. Only the entries a walk
/// set are reset afterwards, so a round pays for what its log reaches,
/// not for the size of the graph.
class DeltaSteps {
public:
  static constexpr uint32_t Far = UINT32_MAX;

  /// Walks up to \p MaxSteps parent steps from the live logged nodes.
  void compute(const EGraph &G, uint32_t MaxSteps) {
    Steps.resize(G.nodeIdBound(), Far);
    Expanded.resize(G.nodeIdBound(), 0);
    Frontier.clear();
    for (ENodeId N : G.changeLog())
      reach(G, N, 0);
    for (uint32_t Step = 1; Step <= MaxSteps && !Frontier.empty(); ++Step) {
      Next.clear();
      for (ENodeId N : Frontier) {
        ClassId C = G.classOf(N);
        if (Expanded[C])
          continue;
        Expanded[C] = 1;
        ExpandedClasses.push_back(C);
        G.forEachParent(C, [&](ENodeId P) { reach(G, P, Step); });
      }
      Frontier.swap(Next);
    }
  }

  /// The reached nodes with operator \p Op and step <= \p MaxSteps, in
  /// ascending id order (the order of G.nodesWithOp(Op)). The list stays
  /// valid until reset().
  const std::vector<ENodeId> &roots(const EGraph &G, ir::OpId Op,
                                    uint32_t MaxSteps) {
    for (const RootList &L : Lists)
      if (L.Op == Op && L.MaxSteps == MaxSteps)
        return L.Roots;
    if (ByOp.empty()) {
      for (ENodeId N : Reached)
        ByOp.push_back({G.node(N).Op, N});
      std::sort(ByOp.begin(), ByOp.end());
    }
    RootList &L = Lists.emplace_back();
    L.Op = Op;
    L.MaxSteps = MaxSteps;
    auto I = std::lower_bound(ByOp.begin(), ByOp.end(),
                              std::pair<ir::OpId, ENodeId>{Op, 0});
    for (; I != ByOp.end() && I->first == Op; ++I)
      if (Steps[I->second] <= MaxSteps)
        L.Roots.push_back(I->second);
    return L.Roots;
  }

  /// Forgets the last walk.
  void reset() {
    for (ENodeId N : Reached)
      Steps[N] = Far;
    for (ClassId C : ExpandedClasses)
      Expanded[C] = 0;
    Reached.clear();
    ExpandedClasses.clear();
    ByOp.clear();
    Lists.clear();
  }

  const uint32_t *data() const { return Steps.data(); }

private:
  struct RootList {
    ir::OpId Op;
    uint32_t MaxSteps;
    std::vector<ENodeId> Roots;
  };
  std::vector<uint32_t> Steps;  ///< By node id.
  std::vector<uint8_t> Expanded; ///< By class id: parents walked.
  std::vector<ENodeId> Reached;
  std::vector<ClassId> ExpandedClasses;
  std::vector<ENodeId> Frontier, Next;
  std::vector<std::pair<ir::OpId, ENodeId>> ByOp; ///< Reached, sorted.
  std::deque<RootList> Lists; ///< Deque: roots() references stay valid.

  void reach(const EGraph &G, ENodeId N, uint32_t Step) {
    if (!G.node(N).Alive || Steps[N] != Far)
      return;
    Steps[N] = Step;
    Reached.push_back(N);
    (Step ? Next : Frontier).push_back(N);
  }
};

/// Operator-application count of a pattern, by explicit stack (axiom
/// sides can be arbitrarily deep; nothing in the matcher may recurse on
/// pattern or graph depth).
size_t patternAppCount(const Axiom &A, PatternId Root) {
  size_t Count = 0;
  std::vector<PatternId> Stack{Root};
  while (!Stack.empty()) {
    PatternId P = Stack.back();
    Stack.pop_back();
    const PatternNode &N = A.pattern(P);
    if (N.TheKind != PatternNode::Kind::App)
      continue;
    ++Count;
    Stack.insert(Stack.end(), N.Children.begin(), N.Children.end());
  }
  return Count;
}

/// The next power of two >= \p V (for adaptive budget seeding: budgets
/// stay on the same doubling ladder the blind backoff walks).
uint64_t roundUpPow2(uint64_t V) {
  uint64_t P = 1;
  while (P < V && P < (1ull << 62))
    P <<= 1;
  return P;
}

} // namespace

unsigned Matcher::axiomPhase(const Axiom &A) {
  // Expansive: some equality rewrites one side into a materially larger
  // one (k*x -> shifts/adds style decompositions). Those blow the graph
  // up, so under --match-phases they wait for the cheap phase to quiesce.
  for (const AxiomLiteral &L : A.Body) {
    if (!L.IsEq)
      continue;
    size_t Lhs = patternAppCount(A, L.Lhs);
    size_t Rhs = patternAppCount(A, L.Rhs);
    size_t Diff = Lhs > Rhs ? Lhs - Rhs : Rhs - Lhs;
    if (Diff >= 2)
      return 1;
  }
  return 0;
}

uint32_t InstanceSet::hash(uint32_t AxiomIdx, const ClassId *Bindings,
                           size_t NumBindings) {
  uint64_t H = AxiomIdx;
  for (size_t I = 0; I < NumBindings; ++I)
    H = (H ^ Bindings[I]) * 0x100000001b3ull;
  return finishHash(H);
}

uint32_t InstanceSet::find(uint32_t Hash, uint32_t AxiomIdx,
                           const ClassId *Bindings, size_t NumBindings) const {
  uint32_t Key = Index.find(Hash, [&](uint32_t Off) {
    return Arena[Off] == AxiomIdx &&
           std::equal(Bindings, Bindings + NumBindings,
                      Arena.begin() + Off + 1);
  });
  return Key == HashIndex::None ? Key : Key + 1;
}

uint32_t InstanceSet::insert(uint32_t Hash, uint32_t AxiomIdx,
                             const ClassId *Bindings, size_t NumBindings) {
  uint32_t Off = static_cast<uint32_t>(Arena.size());
  Arena.push_back(AxiomIdx);
  Arena.insert(Arena.end(), Bindings, Bindings + NumBindings);
  Index.insert(Hash, Off);
  return Off + 1;
}

void InstanceSet::erase(uint32_t AxiomIdx, const ClassId *Bindings,
                        size_t NumBindings) {
  uint32_t Hash = hash(AxiomIdx, Bindings, NumBindings);
  uint32_t Off = find(Hash, AxiomIdx, Bindings, NumBindings);
  if (Off != HashIndex::None)
    Index.erase(Hash, Off - 1);
}

namespace {

/// Runs literal side program \p P of \p A under \p Bindings over the
/// value stack \p Values: Const steps push what \p Leaf returns for the
/// constant, App steps what \p Apply returns for the operator over the
/// operands they pop. \returns the side's class, or std::nullopt as soon
/// as \p Leaf or \p Apply does.
template <typename LeafFn, typename ApplyFn>
std::optional<ClassId> runSide(const Axiom &A, PatternProgram P,
                               const ClassId *Bindings,
                               std::vector<ClassId> &Values, LeafFn &&Leaf,
                               ApplyFn &&Apply) {
  Values.clear();
  const PatternStep *Prog = A.steps(P);
  for (uint32_t I = 0; I < P.Size; ++I) {
    const PatternStep &S = Prog[I];
    std::optional<ClassId> Found;
    switch (S.TheKind) {
    case PatternStep::Kind::Var:
      Found = Bindings[S.Value];
      break;
    case PatternStep::Kind::Const:
      Found = Leaf(S.Value);
      break;
    default: {
      assert(S.TheKind == PatternStep::Kind::App && "not a side program");
      const size_t N = S.Slot;
      Found = Apply(static_cast<ir::OpId>(S.Value),
                    Values.data() + Values.size() - N, N);
      Values.resize(Values.size() - N);
      break;
    }
    }
    if (!Found)
      return std::nullopt;
    Values.push_back(*Found);
  }
  assert(Values.size() == 1 && "unbalanced side program");
  return Values.back();
}

} // namespace

std::optional<ClassId> Matcher::lookupSide(const EGraph &G, const Axiom &A,
                                           PatternProgram P,
                                           const ClassId *Bindings) {
  return runSide(
      A, P, Bindings, SideValues,
      [&](uint64_t V) { return G.lookupConst(V); },
      [&](ir::OpId Op, const ClassId *Kids, size_t N) {
        return G.lookupNode(Op, Kids, N);
      });
}

ClassId Matcher::addSide(EGraph &G, const Axiom &A, PatternProgram P,
                         const ClassId *Bindings) {
  return *runSide(
      A, P, Bindings, SideValues,
      [&](uint64_t V) { return std::optional<ClassId>(G.addConst(V)); },
      [&](ir::OpId Op, const ClassId *Kids, size_t N) {
        return std::optional<ClassId>(G.addNode(Op, Kids, N));
      });
}

bool Matcher::assertInstance(EGraph &G, const Axiom &A, uint32_t AxiomIdx,
                             unsigned Round, const ClassId *Bindings) {
  // Lookup first: an instance whose nodes all exist and whose literal (or
  // some clause literal) already holds changes nothing, which addSide()
  // and the assertion below would only confirm.
  bool AllExist = true, Holds = false;
  for (const AxiomLiteral &L : A.Body) {
    std::optional<ClassId> Lhs = lookupSide(G, A, L.LhsProgram, Bindings);
    std::optional<ClassId> Rhs =
        Lhs ? lookupSide(G, A, L.RhsProgram, Bindings) : std::nullopt;
    if (!Rhs) {
      AllExist = false;
      break;
    }
    Holds |= L.IsEq ? G.sameClass(*Lhs, *Rhs) : G.areDistinct(*Lhs, *Rhs);
  }
  if (AllExist && Holds)
    return false;

  uint64_t Before = G.version();
  if (A.Body.size() == 1) {
    const AxiomLiteral &L = A.Body[0];
    ClassId Lhs = addSide(G, A, L.LhsProgram, Bindings);
    ClassId Rhs = addSide(G, A, L.RhsProgram, Bindings);
    if (L.IsEq) {
      if (G.provenanceEnabled())
        G.assertEqual(
            Lhs, Rhs,
            Justification::axiom(AxiomIdx, Round,
                                 G.internSubst(Bindings, A.VarNames.size()),
                                 static_cast<uint32_t>(A.VarNames.size())));
      else
        G.assertEqual(Lhs, Rhs);
    } else
      G.assertDistinct(Lhs, Rhs);
    return G.version() != Before;
  }
  // Clause: skip if some literal is already satisfied; otherwise record.
  // Under deferred rebuilding the satisfied-check can miss equalities the
  // pending rebuild has not yet propagated — that only admits a redundant
  // clause, which clause processing retires later; never unsoundness.
  std::vector<Literal> Lits;
  Lits.reserve(A.Body.size());
  bool Satisfied = false;
  for (const AxiomLiteral &L : A.Body) {
    ClassId Lhs = addSide(G, A, L.LhsProgram, Bindings);
    ClassId Rhs = addSide(G, A, L.RhsProgram, Bindings);
    if (L.IsEq ? G.sameClass(Lhs, Rhs) : G.areDistinct(Lhs, Rhs))
      Satisfied = true;
    Lits.push_back(L.IsEq ? Literal::eq(Lhs, Rhs) : Literal::ne(Lhs, Rhs));
  }
  if (!Satisfied)
    G.addClause(std::move(Lits));
  return G.version() != Before;
}

MatchStats Matcher::saturate(EGraph &G, const MatchLimits &Limits) {
  MatchStats Stats;
  obs::ObsSpan SatSpan("match.saturate");

  // Saturation owns the rebuild schedule: batched per round unless the
  // caller pins the old per-assert behavior (MatchLimits::EagerRebuild).
  RebuildMode PrevMode = G.rebuildMode();
  G.setRebuildMode(Limits.EagerRebuild ? RebuildMode::Eager
                                       : RebuildMode::Deferred);
  RebuildStats BaseRB = G.rebuildStats();

  // Per-axiom scheduling state for this run.
  const size_t NumAxioms = Axioms.size();
  std::vector<uint64_t> BudgetNow(NumAxioms, Limits.MatchBudget);
  std::vector<uint8_t> SitOut(NumAxioms, 0);
  std::vector<unsigned> Phase(NumAxioms, 0);
  unsigned MaxPhase = 0, CurrentPhase = 0;
  if (Limits.Phased)
    for (size_t I = 0; I < NumAxioms; ++I) {
      Phase[I] = axiomPhase(Axioms[I]);
      MaxPhase = std::max(MaxPhase, Phase[I]);
    }

  // Per-axiom attribution rows (the saturation profiler's raw output).
  Stats.PerAxiom.assign(NumAxioms, obs::AxiomProfile());

  // Adaptive scheduling (--match-adaptive): replace "uniform budget +
  // blind doubling" with history. Two moves, both pure schedule changes
  // that re-enter held-back work through the existing backoff /
  // phase-advance machinery (so quiescent closure is unchanged):
  //   * Demote axioms whose recorded runs never changed the graph behind
  //     every scheduled phase; their enumeration cost is paid only after
  //     the productive set quiesces.
  //   * Seed each productive axiom's budget at its historical per-run raw
  //     demand (next power of two — the backoff ladder), so early rounds
  //     stop burning truncated enumerations and sit-outs discovering it.
  //     Seeding needs an active budget scheduler (MatchBudget > 0);
  //     yield-per-microsecond ordering gives the top half 2x headroom.
  bool PhasedRun = Limits.Phased;
  if (Limits.Adaptive && Limits.Ledger) {
    const unsigned DemotePhase = MaxPhase + 1;
    struct Hist {
      size_t Idx;
      obs::AxiomProfile P;
    };
    std::vector<Hist> Productive;
    bool AnyDemoted = false;
    for (size_t I = 0; I < NumAxioms; ++I) {
      if (Axioms[I].VarNames.empty())
        continue; // Ground facts are exempt from scheduling.
      obs::AxiomProfile P;
      if (!Limits.Ledger->lookup(Limits.LedgerKey,
                                 axiomLedgerId(Axioms[I], I), P) ||
          P.Runs == 0)
        continue; // No history: PR 6 defaults for this axiom.
      if (P.Instances == 0 && P.Merges == 0) {
        Phase[I] = DemotePhase;
        AnyDemoted = true;
        ++Stats.AdaptiveDemoted;
      } else if (Limits.MatchBudget) {
        Productive.push_back(Hist{I, P});
      }
    }
    if (AnyDemoted) {
      PhasedRun = true;
      MaxPhase = std::max(MaxPhase, DemotePhase);
    }
    if (!Productive.empty()) {
      std::sort(Productive.begin(), Productive.end(),
                [](const Hist &A, const Hist &B) {
                  double Ya = A.P.yieldPerUs(), Yb = B.P.yieldPerUs();
                  if (Ya != Yb)
                    return Ya > Yb;
                  return A.Idx < B.Idx;
                });
      for (size_t R = 0; R < Productive.size(); ++R) {
        const Hist &H = Productive[R];
        uint64_t PerRun = H.P.Raw / H.P.Runs + 1;
        uint64_t Seeded =
            roundUpPow2(std::max(PerRun, Limits.MatchBudget));
        if (R * 2 < Productive.size())
          Seeded *= 2;
        BudgetNow[H.Idx] = std::max(BudgetNow[H.Idx], Seeded);
        ++Stats.AdaptiveSeeded;
      }
    }
  }

  // Semi-naive state. Complete[I]: axiom I's last round enumerated every
  // match — it was active and neither its budget, the per-round instance
  // cap nor the node cap cut it short — so every match it finds now that
  // uses no node logged since then is already in Done. The log starts
  // empty, so the first round scans in full.
  std::vector<uint8_t> Complete(NumAxioms, 0);
  DeltaSteps Delta;
  G.setChangeLogging(true);

  // Per-round scratch, reused across rounds: which axioms match, one
  // match's canonical bindings, the queued instances, and one match engine
  // with its binding vectors.
  std::vector<uint8_t> Active(NumAxioms);
  std::vector<ClassId> Scratch;
  struct PendingInstance {
    uint32_t AxiomIdx;
    uint32_t Bindings; ///< Offset in Done.
  };
  std::vector<PendingInstance> Pending;
  MatchEngine Engine(G);

  for (unsigned Round = 0; Round < Limits.MaxRounds; ++Round) {
    ++Stats.Rounds;
    obs::ObsSpan RoundSpan("match.round");
    uint64_t RoundMatches = Stats.MatchesFound;
    uint64_t RoundDeduped = Stats.InstancesDeduped;
    uint64_t RoundAsserted = Stats.InstancesAsserted;
    uint64_t RoundOverflows = Stats.BudgetOverflows;
    uint64_t RoundSkips = Stats.BudgetSkips;
    uint64_t RoundRebuilds = G.rebuildStats().Rebuilds;
    uint64_t RoundMerges = G.rebuildStats().Merges;
    uint64_t RoundStart = G.version();
    bool SchedHeldBack = false; // Some axiom sat out or was truncated.

    for (const Elaborator &E : Elaborators)
      E(G);
    // Close over last round's instances and the elaborators' facts before
    // matching (no-op when nothing is pending / in eager mode).
    G.rebuild();
    if (G.isInconsistent())
      break;

    // Which axioms match this round, and at what budget.
    std::fill(Active.begin(), Active.end(), 1);
    for (size_t I = 0; I < NumAxioms; ++I) {
      if (Axioms[I].VarNames.empty())
        continue; // Ground facts are exempt from scheduling.
      if (PhasedRun && Phase[I] > CurrentPhase) {
        Active[I] = 0;
        continue;
      }
      if (SitOut[I]) {
        // Backoff: sit this round out; the budget was already doubled.
        SitOut[I] = 0;
        Active[I] = 0;
        ++Stats.BudgetSkips;
        ++Stats.PerAxiom[I].Skips;
        SchedHeldBack = true;
      }
    }

    // Semi-naive axioms match only near what changed since last round's
    // match phase: walk the change log up to the tallest of their
    // triggers, then start a fresh log for the next round.
    uint32_t MaxRootSteps = 0;
    bool AnySemiNaive = false;
    for (size_t I = 0; I < NumAxioms; ++I) {
      if (!Active[I] || !Complete[I] || Axioms[I].VarNames.empty())
        continue;
      AnySemiNaive = true;
      for (uint32_t Height : Axioms[I].TriggerHeights)
        MaxRootSteps = std::max(MaxRootSteps, Height - 1);
    }
    if (AnySemiNaive)
      Delta.compute(G, MaxRootSteps);
    G.clearChangeLog();

    // Match generation, one pass in (axiom, trigger) order. Each match is
    // canonicalized into a reused scratch key and dropped if Done holds it
    // (queued this round or an earlier one); otherwise it goes into Done
    // and is queued. The axiom's budget and the round's instance cap stop
    // its enumeration at the first match they leave out. Only reads the
    // graph; instantiation waits until every axiom has matched. The
    // operator views are refreshed here, once, for the classes the last
    // round and the elaborators touched.
    G.refreshOpViews();
    Pending.clear();
    uint64_t TopRaw = 0; // This round's busiest axiom, for the round span.
    uint32_t TopAIdx = 0;
    for (uint32_t AIdx = 0; AIdx < NumAxioms; ++AIdx) {
      const Axiom &A = Axioms[AIdx];
      if (A.VarNames.empty()) {
        // Ground fact: assert once.
        if (Done.find(AIdx, nullptr, 0) == HashIndex::None)
          Pending.push_back(PendingInstance{AIdx, Done.insert(AIdx, nullptr, 0)});
        continue;
      }
      const bool SemiNaive = Complete[AIdx];
      Complete[AIdx] = 0;
      if (!Active[AIdx])
        continue;
      assert(A.TriggerHeights.size() == A.Triggers.size() &&
             "trigger heights are computed with the triggers");
      obs::AxiomProfile &AP = Stats.PerAxiom[AIdx];
      const uint64_t Budget = BudgetNow[AIdx];
      const size_t NumVars = A.VarNames.size();
      Scratch.resize(NumVars);
      uint64_t Raw = 0;
      bool Truncated = false;
      auto OnMatch = [&](const ClassId *Bs) {
        // Raw match budget + 1 is counted: it is what proves the overflow.
        ++Raw;
        if (Budget && Raw > Budget) {
          Truncated = true;
          return false;
        }
        for (size_t V = 0; V < NumVars; ++V)
          Scratch[V] = G.find(Bs[V]);
        const ClassId *Key = Scratch.data();
        const uint32_t Hash = InstanceSet::hash(AIdx, Key, NumVars);
        if (Done.find(Hash, AIdx, Key, NumVars) != HashIndex::None) {
          ++Stats.InstancesDeduped;
          return true;
        }
        if (Pending.size() >= Limits.MaxInstancesPerRound) {
          // Left out of Done: the next round must be able to find it.
          Truncated = true;
          return false;
        }
        Pending.push_back(
            PendingInstance{AIdx, Done.insert(Hash, AIdx, Key, NumVars)});
        return true;
      };
      for (size_t T = 0; T < A.Triggers.size() && !Truncated; ++T) {
        ir::OpId Op = A.pattern(A.Triggers[T]).Op;
        const std::vector<ENodeId> &Roots =
            SemiNaive ? Delta.roots(G, Op, A.TriggerHeights[T] - 1)
                      : G.nodesWithOp(Op);
        if (Roots.empty())
          continue;
        const int64_t T0 = obs::nowNs();
        Engine.run(A, T, Roots, SemiNaive ? Delta.data() : nullptr, OnMatch);
        AP.MatchNs += static_cast<uint64_t>(obs::nowNs() - T0);
      }
      Stats.MatchesFound += Raw;
      AP.Raw += Raw;
      if (Raw > TopRaw) {
        TopRaw = Raw;
        TopAIdx = AIdx;
      }
      if (Truncated)
        SchedHeldBack = true;
      else
        Complete[AIdx] = 1;
      if (Budget && Truncated) {
        // Backoff: overflowed its budget — sit out next round, return
        // with double.
        ++Stats.BudgetOverflows;
        ++AP.Overflows;
        SitOut[AIdx] = 1;
        BudgetNow[AIdx] = Budget * 2;
      }
    }
    if (AnySemiNaive)
      Delta.reset();

    // Per-axiom instantiate attribution is batched over the contiguous
    // runs of one axiom's instances in Pending (matching queues per axiom,
    // in order), so the clock is read twice per axiom group, not
    // twice per instance — that difference is most of the attribution
    // overhead on instance-heavy rounds. Merges counts direct unions;
    // congruence repair is batched into the round rebuild and not
    // attributable per axiom.
    uint32_t GroupAIdx = UINT32_MAX;
    int64_t GroupT0 = 0;
    uint64_t GroupMerges0 = 0;
    auto FlushGroup = [&](int64_t Now) {
      if (GroupAIdx == UINT32_MAX)
        return;
      obs::AxiomProfile &AP = Stats.PerAxiom[GroupAIdx];
      AP.InstantiateNs += static_cast<uint64_t>(Now - GroupT0);
      AP.Merges += G.rebuildStats().Merges - GroupMerges0;
    };
    size_t Instantiated = 0;
    for (; Instantiated < Pending.size(); ++Instantiated) {
      if (G.numNodes() >= Limits.MaxNodes)
        break;
      if (G.isInconsistent())
        break;
      PendingInstance &P = Pending[Instantiated];
      if (P.AxiomIdx != GroupAIdx) {
        const int64_t Now = obs::nowNs();
        FlushGroup(Now);
        GroupAIdx = P.AxiomIdx;
        GroupT0 = Now;
        GroupMerges0 = G.rebuildStats().Merges;
      }
      bool Changed = assertInstance(G, Axioms[P.AxiomIdx], P.AxiomIdx,
                                    Stats.Rounds, Done.bindings(P.Bindings));
      if (Changed) {
        ++Stats.InstancesAsserted;
        obs::AxiomProfile &AP = Stats.PerAxiom[P.AxiomIdx];
        ++AP.Instances;
        if (!AP.FirstRound)
          AP.FirstRound = Stats.Rounds;
        AP.LastRound = Stats.Rounds;
      }
    }
    FlushGroup(obs::nowNs());
    // Instances the node cap (or a contradiction) cut off went into Done
    // when queued; take them back out so a later round can find them, and
    // scan in full next round, since this round's enumerations did not
    // all become instances.
    const bool Cut = Instantiated < Pending.size();
    for (size_t I = Instantiated; I < Pending.size(); ++I)
      Done.erase(Pending[I].AxiomIdx, Done.bindings(Pending[I].Bindings),
                 Axioms[Pending[I].AxiomIdx].VarNames.size());
    if (Cut)
      std::fill(Complete.begin(), Complete.end(), 0);

    // The batched per-round rebuild: close congruence over everything the
    // instances merged (one repair pass instead of one per assert).
    G.rebuild();

    if (RoundSpan.active()) {
      RoundSpan.arg("round", Stats.Rounds)
          .arg("matched", Stats.MatchesFound - RoundMatches)
          .arg("deduped", Stats.InstancesDeduped - RoundDeduped)
          .arg("asserted", Stats.InstancesAsserted - RoundAsserted)
          .arg("merges", G.rebuildStats().Merges - RoundMerges)
          .arg("rebuilds", G.rebuildStats().Rebuilds - RoundRebuilds)
          .arg("sched_overflows", Stats.BudgetOverflows - RoundOverflows)
          .arg("sched_skips", Stats.BudgetSkips - RoundSkips)
          .arg("enodes", static_cast<uint64_t>(G.numNodes()))
          .arg("eclasses", static_cast<uint64_t>(G.numClasses()));
      if (TopRaw)
        RoundSpan
            .arg("top_axiom",
                 axiomLedgerId(Axioms[TopAIdx], TopAIdx).c_str())
            .arg("top_axiom_raw", TopRaw);
    }

    // A round the node cap cut is not quiescent, even when it asserted
    // nothing: its queued instances were never tried.
    if (G.version() == RoundStart && !Cut) {
      if (SchedHeldBack)
        continue; // Budgets doubled / axioms return: more to enumerate.
      if (PhasedRun && CurrentPhase < MaxPhase) {
        ++CurrentPhase;
        ++Stats.PhaseAdvances;
        continue;
      }
      Stats.Quiesced = true;
      break;
    }
    if (G.numNodes() >= Limits.MaxNodes || G.isInconsistent())
      break;
  }

  // Leave the graph closed and restore the caller's rebuild discipline.
  G.rebuild();
  G.setRebuildMode(PrevMode);
  G.setChangeLogging(false);
  Stats.Merges = G.rebuildStats().Merges - BaseRB.Merges;
  Stats.CongruenceMerges =
      G.rebuildStats().CongruenceMerges - BaseRB.CongruenceMerges;
  Stats.ConstantFolds = G.rebuildStats().ConstantFolds - BaseRB.ConstantFolds;
  Stats.Rebuilds = G.rebuildStats().Rebuilds - BaseRB.Rebuilds;

  Stats.FinalNodes = G.numNodes();
  Stats.FinalClasses = G.numClasses();
  if (obs::enabled()) {
    if (SatSpan.active())
      SatSpan.arg("rounds", Stats.Rounds)
          .arg("matched", Stats.MatchesFound)
          .arg("asserted", Stats.InstancesAsserted)
          .arg("enodes", static_cast<uint64_t>(Stats.FinalNodes))
          .arg("eclasses", static_cast<uint64_t>(Stats.FinalClasses))
          .arg("quiesced", Stats.Quiesced ? "yes" : "no");
    auto &R = obs::Registry::global();
    R.counter("match.rounds").add(Stats.Rounds);
    R.counter("match.matches").add(Stats.MatchesFound);
    R.counter("match.instances_deduped").add(Stats.InstancesDeduped);
    R.counter("match.instances_asserted").add(Stats.InstancesAsserted);
    R.counter("match.sched.budget_overflows").add(Stats.BudgetOverflows);
    R.counter("match.sched.budget_skips").add(Stats.BudgetSkips);
    R.counter("match.sched.phase_advances").add(Stats.PhaseAdvances);
    R.counter("match.sched.merges").add(Stats.Merges);
    R.counter("match.sched.congruence_merges").add(Stats.CongruenceMerges);
    R.counter("match.sched.constant_folds").add(Stats.ConstantFolds);
    R.counter("match.sched.rebuilds").add(Stats.Rebuilds);
    R.counter("match.sched.adaptive_seeded").add(Stats.AdaptiveSeeded);
    R.counter("match.sched.adaptive_demoted").add(Stats.AdaptiveDemoted);
    R.gauge("match.enodes").noteMax(static_cast<int64_t>(Stats.FinalNodes));
    R.gauge("match.eclasses")
        .noteMax(static_cast<int64_t>(Stats.FinalClasses));
    // Per-axiom attribution rows, as a counter family keyed by ledger id.
    // Only touched rows register, so the namespace holds the axioms that
    // actually did something, not the whole rule set times seven.
    for (size_t I = 0; I < NumAxioms; ++I) {
      const obs::AxiomProfile &AP = Stats.PerAxiom[I];
      if (!AP.Raw && !AP.Instances && !AP.InstantiateNs && !AP.Skips)
        continue;
      std::string Base = "match.axiom." + axiomLedgerId(Axioms[I], I);
      auto Add = [&R, &Base](const char *Leaf, uint64_t V) {
        if (V)
          R.counter(Base + Leaf).add(V);
      };
      Add(".raw", AP.Raw);
      Add(".instances", AP.Instances);
      Add(".merges", AP.Merges);
      Add(".match_us", AP.MatchNs / 1000);
      Add(".inst_us", AP.InstantiateNs / 1000);
      Add(".overflows", AP.Overflows);
      Add(".skips", AP.Skips);
    }
  }
  return Stats;
}

std::string Matcher::axiomLedgerId(const Axiom &A, size_t Idx) {
  return strFormat("%s#%zu", A.Name.c_str(), Idx);
}

void denali::match::recordMatchProfile(obs::ProfileLedger &Ledger,
                                       const std::string &GraphKey,
                                       const std::vector<Axiom> &Axioms,
                                       const MatchStats &Stats) {
  for (size_t I = 0; I < Axioms.size() && I < Stats.PerAxiom.size(); ++I) {
    if (Axioms[I].VarNames.empty())
      continue; // Ground facts are exempt from scheduling — no history.
    obs::AxiomProfile P = Stats.PerAxiom[I];
    P.Runs = 1;
    Ledger.record(GraphKey, Matcher::axiomLedgerId(Axioms[I], I), P);
  }
}

std::vector<Elaborator> denali::match::standardElaborators() {
  return {powerOfTwoElaborator(), byteMaskElaborator(),
          byteShiftElaborator(), offsetDisequalityElaborator()};
}
