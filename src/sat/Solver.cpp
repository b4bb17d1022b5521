//===- sat/Solver.cpp -----------------------------------------------------===//

#include "sat/Solver.h"

#include "obs/Obs.h"
#include "support/Error.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

using namespace denali;
using namespace denali::sat;

Solver::Solver() = default;

Var Solver::newVar() {
  Var V = static_cast<Var>(Assigns.size());
  Assigns.push_back(LBool::Undef);
  SavedPhase.push_back(0);
  Level.push_back(0);
  Reason.push_back(InvalidCRef);
  Activity.push_back(0.0);
  HeapPos.push_back(-1);
  SeenFlags.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  heapInsert(V);
  return V;
}

float Solver::clauseActivity(CRef C) const {
  float A;
  std::memcpy(&A, &Arena[C + 1], sizeof(float));
  return A;
}

void Solver::setClauseActivity(CRef C, float A) {
  std::memcpy(&Arena[C + 1], &A, sizeof(float));
}

Solver::CRef Solver::allocClause(const ClauseLits &Lits, bool Learnt) {
  CRef C = static_cast<CRef>(Arena.size());
  Arena.push_back(static_cast<uint32_t>(Lits.size()) |
                  (Learnt ? LearntBit : 0));
  // Word [1] is the activity for learnt clauses; problem clauses never use
  // it (claBumpActivity early-returns for them), so it carries the
  // attribution tag instead.
  Arena.push_back(Learnt ? 0 : CurrentTag);
  for (Lit L : Lits)
    Arena.push_back(static_cast<uint32_t>(L.index()));
  return C;
}

void Solver::noteClauseTags(CRef C, std::vector<uint32_t> &Out) const {
  if (clauseLearnt(C)) {
    auto It = LearntTags.find(C);
    if (It != LearntTags.end())
      Out.insert(Out.end(), It->second.begin(), It->second.end());
    return;
  }
  if (uint32_t T = Arena[C + 1])
    Out.push_back(T);
}

void Solver::noteUnitTags(Var V, std::vector<uint32_t> &Out) const {
  auto It = UnitTags.find(V);
  if (It != UnitTags.end())
    Out.insert(Out.end(), It->second.begin(), It->second.end());
}

void Solver::finalizeCore() {
  std::sort(CoreOut.begin(), CoreOut.end());
  CoreOut.erase(std::unique(CoreOut.begin(), CoreOut.end()), CoreOut.end());
}

void Solver::level0CoreBfs(std::vector<Var> &Queue) {
  // BFS over a level-0 implication cone, unioning the tags of every clause
  // it rests on (unit facts look up UnitTags). Queue vars are pre-seen.
  while (!Queue.empty()) {
    Var V = Queue.back();
    Queue.pop_back();
    if (Reason[V] != InvalidCRef) {
      CRef C = Reason[V];
      noteClauseTags(C, CoreOut);
      const Lit *Lits = clauseLits(C);
      for (uint32_t I = 0; I < clauseSize(C); ++I) {
        Var W = Lits[I].var();
        if (!SeenFlags[W]) {
          SeenFlags[W] = 1;
          SeenToClear.push_back(W);
          Queue.push_back(W);
        }
      }
    } else {
      noteUnitTags(V, CoreOut);
    }
  }
  for (Var V : SeenToClear)
    SeenFlags[V] = 0;
  SeenToClear.clear();
  finalizeCore();
}

void Solver::collectLevel0Core(CRef Confl) {
  std::vector<Var> Queue;
  noteClauseTags(Confl, CoreOut);
  const Lit *Lits = clauseLits(Confl);
  for (uint32_t I = 0; I < clauseSize(Confl); ++I) {
    Var V = Lits[I].var();
    if (!SeenFlags[V]) {
      SeenFlags[V] = 1;
      SeenToClear.push_back(V);
      Queue.push_back(V);
    }
  }
  level0CoreBfs(Queue);
}

void Solver::collectLevel0VarCore(Var Start) {
  // Attribution core of a single literal forced at level 0 (an assumption
  // the formula refutes without any search).
  std::vector<Var> Queue;
  if (!SeenFlags[Start]) {
    SeenFlags[Start] = 1;
    SeenToClear.push_back(Start);
    Queue.push_back(Start);
  }
  level0CoreBfs(Queue);
}

void Solver::attachClause(CRef C) {
  assert(clauseSize(C) >= 2 && "cannot watch short clause");
  const Lit *Lits = clauseLits(C);
  Watches[(~Lits[0]).index()].push_back(Watcher{C, Lits[1]});
  Watches[(~Lits[1]).index()].push_back(Watcher{C, Lits[0]});
}

void Solver::detachClause(CRef C) {
  const Lit *Lits = clauseLits(C);
  for (int I = 0; I < 2; ++I) {
    std::vector<Watcher> &WList = Watches[(~Lits[I]).index()];
    for (size_t J = 0; J < WList.size(); ++J)
      if (WList[J].Clause == C) {
        WList[J] = WList.back();
        WList.pop_back();
        break;
      }
  }
}

bool Solver::addClause(const Lit *Input, size_t Size) {
  assert(decisionLevel() == 0 && "clauses must be added at level 0");
  if (Unsatisfiable)
    return false;
  ++ProblemClauses;
  if (KeepAdded)
    AddedClauses.emplace_back(Input, Input + Size);
  // Normalize: sort, dedup, drop false literals, detect tautologies and
  // satisfied clauses. The scratch vectors keep this allocation-free.
  ClauseLits &Lits = AddSorted;
  Lits.assign(Input, Input + Size);
  std::sort(Lits.begin(), Lits.end());
  Lits.erase(std::unique(Lits.begin(), Lits.end()), Lits.end());
  ClauseLits &Out = AddKept;
  Out.clear();
  for (size_t I = 0; I < Lits.size(); ++I) {
    Lit L = Lits[I];
    if (I + 1 < Lits.size() && Lits[I + 1] == ~L)
      return true; // Tautology.
    LBool V = value(L);
    if (V == LBool::True)
      return true; // Already satisfied at level 0.
    if (V == LBool::False)
      continue; // Falsified at level 0; drop.
    Out.push_back(L);
  }
  if (Out.empty()) {
    if (CoreTracking && CurrentTag)
      CoreOut.push_back(CurrentTag);
    Unsatisfiable = true;
    finalizeCore();
    return false;
  }
  if (Out.size() == 1) {
    AddedUnits.push_back(Out[0]);
    if (CoreTracking && CurrentTag)
      UnitTags[Out[0].var()] = {CurrentTag};
    enqueue(Out[0], InvalidCRef);
    if (CRef Confl = propagate(); Confl != InvalidCRef) {
      if (CoreTracking)
        collectLevel0Core(Confl);
      Unsatisfiable = true;
      return false;
    }
    return true;
  }
  CRef C = allocClause(Out, /*Learnt=*/false);
  Problems.push_back(C);
  attachClause(C);
  return true;
}

void Solver::enqueue(Lit L, CRef From) {
  assert(value(L) == LBool::Undef && "enqueue of assigned literal");
  Var V = L.var();
  Assigns[V] = lboolFrom(!L.negative());
  SavedPhase[V] = L.negative() ? 0 : 1;
  Level[V] = decisionLevel();
  Reason[V] = From;
  Trail.push_back(L);
}

Solver::CRef Solver::propagate() {
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++];
    ++Stats.Propagations;
    std::vector<Watcher> &WList = Watches[P.index()];
    size_t KeepIdx = 0;
    for (size_t I = 0; I < WList.size(); ++I) {
      Watcher W = WList[I];
      if (value(W.Blocker) == LBool::True) {
        WList[KeepIdx++] = W;
        continue;
      }
      CRef C = W.Clause;
      Lit *Lits = clauseLits(C);
      uint32_t Size = clauseSize(C);
      // Make sure the falsified literal is Lits[1].
      Lit NotP = ~P;
      if (Lits[0] == NotP)
        std::swap(Lits[0], Lits[1]);
      assert(Lits[1] == NotP && "watch list out of sync");
      // If the first literal is true, the clause is satisfied.
      if (value(Lits[0]) == LBool::True) {
        WList[KeepIdx++] = Watcher{C, Lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool FoundWatch = false;
      for (uint32_t J = 2; J < Size; ++J) {
        if (value(Lits[J]) != LBool::False) {
          std::swap(Lits[1], Lits[J]);
          Watches[(~Lits[1]).index()].push_back(Watcher{C, Lits[0]});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Unit or conflicting.
      WList[KeepIdx++] = W;
      if (value(Lits[0]) == LBool::False) {
        // Conflict: keep the remaining watchers and bail out.
        for (size_t J = I + 1; J < WList.size(); ++J)
          WList[KeepIdx++] = WList[J];
        WList.resize(KeepIdx);
        PropagateHead = Trail.size();
        return C;
      }
      enqueue(Lits[0], C);
    }
    WList.resize(KeepIdx);
  }
  return InvalidCRef;
}

void Solver::varBumpActivity(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[V] >= 0)
    heapPercolateUp(HeapPos[V]);
}

void Solver::varDecayActivity() { VarInc /= VarDecay; }

void Solver::claBumpActivity(CRef C) {
  if (!clauseLearnt(C))
    return;
  float A = clauseActivity(C) + static_cast<float>(ClauseInc);
  if (A > 1e20f) {
    for (CRef L : Learnts)
      setClauseActivity(L, clauseActivity(L) * 1e-20f);
    ClauseInc *= 1e-20;
    A = clauseActivity(C) + static_cast<float>(ClauseInc);
  }
  setClauseActivity(C, A);
}

void Solver::claDecayActivity() { ClauseInc /= ClauseDecay; }

//===----------------------------------------------------------------------===
// Binary max-heap on Activity, used as the VSIDS order.
//===----------------------------------------------------------------------===

void Solver::heapInsert(Var V) {
  if (HeapPos[V] >= 0)
    return;
  HeapPos[V] = static_cast<int32_t>(Heap.size());
  Heap.push_back(V);
  heapPercolateUp(HeapPos[V]);
}

void Solver::heapPercolateUp(int Pos) {
  Var V = Heap[Pos];
  while (Pos > 0) {
    int Parent = (Pos - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[V])
      break;
    Heap[Pos] = Heap[Parent];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Parent;
  }
  Heap[Pos] = V;
  HeapPos[V] = Pos;
}

void Solver::heapPercolateDown(int Pos) {
  Var V = Heap[Pos];
  int Size = static_cast<int>(Heap.size());
  for (;;) {
    int Child = 2 * Pos + 1;
    if (Child >= Size)
      break;
    if (Child + 1 < Size && Activity[Heap[Child + 1]] > Activity[Heap[Child]])
      ++Child;
    if (Activity[Heap[Child]] <= Activity[V])
      break;
    Heap[Pos] = Heap[Child];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Child;
  }
  Heap[Pos] = V;
  HeapPos[V] = Pos;
}

Var Solver::heapRemoveMax() {
  Var V = Heap[0];
  HeapPos[V] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapPos[Heap[0]] = 0;
    heapPercolateDown(0);
  }
  return V;
}

Lit Solver::pickBranchLit() {
  while (!Heap.empty()) {
    Var V = heapRemoveMax();
    if (Assigns[V] == LBool::Undef)
      return Lit(V, SavedPhase[V] == 0);
  }
  return Lit();
}

//===----------------------------------------------------------------------===
// Conflict analysis (first UIP) with recursive clause minimization.
//===----------------------------------------------------------------------===

void Solver::analyze(CRef Confl, ClauseLits &Learnt, int &BacktrackLevel) {
  Learnt.clear();
  Learnt.push_back(Lit()); // Placeholder for the asserting literal.
  int Counter = 0;
  Lit P;
  size_t TrailIdx = Trail.size();

  if (CoreTracking)
    ResolveTags.clear();
  CRef Cur = Confl;
  do {
    assert(Cur != InvalidCRef && "reached decision without UIP");
    claBumpActivity(Cur);
    if (CoreTracking)
      noteClauseTags(Cur, ResolveTags);
    const Lit *Lits = clauseLits(Cur);
    uint32_t Size = clauseSize(Cur);
    // Skip Lits[0] when Cur is a reason clause (it is P itself).
    for (uint32_t J = (P.valid() ? 1 : 0); J < Size; ++J) {
      Lit Q = Lits[J];
      Var V = Q.var();
      if (SeenFlags[V] || Level[V] == 0) {
        // A level-0 literal resolves against a unit fact: its tag is part
        // of this learnt clause's provenance.
        if (CoreTracking && !SeenFlags[V])
          noteUnitTags(V, ResolveTags);
        continue;
      }
      SeenFlags[V] = SeenSource;
      SeenToClear.push_back(V);
      varBumpActivity(V);
      if (Level[V] >= decisionLevel())
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Walk the trail backwards to the next marked literal.
    while (!SeenFlags[Trail[TrailIdx - 1].var()])
      --TrailIdx;
    --TrailIdx;
    P = Trail[TrailIdx];
    Cur = Reason[P.var()];
    SeenFlags[P.var()] = 0;
    --Counter;
  } while (Counter > 0);
  Learnt[0] = ~P;

  // Clause minimization: drop literals implied by the rest of the clause.
  uint32_t AbstractLevels = 0;
  for (size_t I = 1; I < Learnt.size(); ++I)
    AbstractLevels |= 1u << (Level[Learnt[I].var()] & 31);
  size_t Keep = 1;
  for (size_t I = 1; I < Learnt.size(); ++I) {
    if (Reason[Learnt[I].var()] == InvalidCRef ||
        !litRedundant(Learnt[I], AbstractLevels))
      Learnt[Keep++] = Learnt[I];
  }
  Learnt.resize(Keep);

  // Compute backtrack level and move its literal to position 1.
  BacktrackLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxIdx = 1;
    for (size_t I = 2; I < Learnt.size(); ++I)
      if (Level[Learnt[I].var()] > Level[Learnt[MaxIdx].var()])
        MaxIdx = I;
    std::swap(Learnt[1], Learnt[MaxIdx]);
    BacktrackLevel = Level[Learnt[1].var()];
  }

  for (Var V : SeenToClear)
    SeenFlags[V] = 0;
  SeenToClear.clear();
}

bool Solver::litRedundant(Lit L, uint32_t AbstractLevels) {
  // DFS over the implication graph; a literal is redundant if every path
  // to decisions passes through literals already in the learnt clause.
  // Redundancy is a property of the graph and the clause, so verdicts are
  // kept (MiniSat's removable/failed marks): later literals of the same
  // clause never walk a settled subgraph again.
  assert(SeenFlags[L.var()] == SeenSource && "not a learnt-clause literal");
  RedundantStack.clear();
  Var V = L.var();
  uint32_t Next = 1;
  // Minimization performs extra resolutions; their provenance joins the
  // learnt clause's (collected even when the check fails — a harmless
  // overapproximation for an attribution core).
  if (CoreTracking)
    noteClauseTags(Reason[V], ResolveTags);
  for (;;) {
    CRef R = Reason[V];
    assert(R != InvalidCRef && "redundancy check reached a decision");
    if (Next < clauseSize(R)) {
      Var W = clauseLits(R)[Next++].var();
      if (Level[W] == 0 || SeenFlags[W] == SeenSource ||
          SeenFlags[W] == SeenRemovable)
        continue;
      if (Reason[W] == InvalidCRef || SeenFlags[W] == SeenFailed ||
          !(AbstractLevels & (1u << (Level[W] & 31)))) {
        // W is not implied by the clause, so nothing on the path to it is.
        RedundantStack.push_back(RedundantFrame{V, Next});
        for (const RedundantFrame &F : RedundantStack)
          if (SeenFlags[F.V] == SeenNone) {
            SeenFlags[F.V] = SeenFailed;
            SeenToClear.push_back(F.V);
          }
        return false;
      }
      RedundantStack.push_back(RedundantFrame{V, Next});
      V = W;
      Next = 1;
      if (CoreTracking)
        noteClauseTags(Reason[V], ResolveTags);
      continue;
    }
    // Every antecedent of V is implied by the clause.
    if (SeenFlags[V] == SeenNone) {
      SeenFlags[V] = SeenRemovable;
      SeenToClear.push_back(V);
    }
    if (RedundantStack.empty())
      return true;
    V = RedundantStack.back().V;
    Next = RedundantStack.back().Next;
    RedundantStack.pop_back();
  }
}

void Solver::backtrack(int ToLevel) {
  if (decisionLevel() <= ToLevel)
    return;
  size_t Bound = static_cast<size_t>(TrailLims[ToLevel]);
  for (size_t I = Trail.size(); I > Bound; --I) {
    Var V = Trail[I - 1].var();
    Assigns[V] = LBool::Undef;
    Reason[V] = InvalidCRef;
    heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLims.resize(ToLevel);
  PropagateHead = Trail.size();
}

void Solver::reduceDB() {
  size_t LearntsBefore = Learnts.size();
  // Drop the less active half of the learnt clauses (never unit reasons).
  std::sort(Learnts.begin(), Learnts.end(), [&](CRef A, CRef B) {
    return clauseActivity(A) < clauseActivity(B);
  });
  size_t Keep = 0;
  size_t Target = Learnts.size() / 2;
  for (size_t I = 0; I < Learnts.size(); ++I) {
    CRef C = Learnts[I];
    bool IsReason = false;
    const Lit *Lits = clauseLits(C);
    if (value(Lits[0]) == LBool::True && Reason[Lits[0].var()] == C)
      IsReason = true;
    if (IsReason || I >= Target || clauseSize(C) == 2) {
      Learnts[Keep++] = C;
    } else {
      detachClause(C);
      if (!LearntTags.empty())
        LearntTags.erase(C);
      WastedArenaWords += 2 + clauseSize(C);
      ++Stats.DeletedClauses;
    }
  }
  Learnts.resize(Keep);
  if (obs::enabled()) {
    obs::Registry::global().counter("sat.reduce_db").add(1);
    obs::instant("sat.reduce_db",
                 strFormat("\"learnts_before\":%zu,\"learnts_after\":%zu",
                           LearntsBefore, Keep));
  }
  // Deleted clauses leave dead words in the arena. A per-probe solver never
  // notices, but an incremental solver lives for a whole budget ladder;
  // compact once the holes dominate.
  if (WastedArenaWords > Arena.size() / 3)
    compactArena();
}

void Solver::compactArena() {
  // Copy live clauses into a fresh arena, leaving a forwarding pointer in
  // each old header, then remap every outstanding CRef (clause lists,
  // reasons of assigned variables, watchers). Safe at the point reduceDB
  // runs: no conflict in flight and the propagation queue is drained.
  std::vector<uint32_t> NewArena;
  NewArena.reserve(Arena.size() > WastedArenaWords
                       ? Arena.size() - WastedArenaWords
                       : 0);
  auto moveClause = [&](CRef C) {
    CRef N = static_cast<CRef>(NewArena.size());
    uint32_t Words = 2 + clauseSize(C);
    for (uint32_t I = 0; I < Words; ++I)
      NewArena.push_back(Arena[C + I]);
    Arena[C] = N; // Forwarding pointer (the old header is dead now).
    return N;
  };
  // Every live clause is in exactly one of Problems/Learnts, so each moves
  // exactly once; Reason/Watcher references are then pure lookups.
  for (CRef &C : Problems)
    C = moveClause(C);
  for (CRef &C : Learnts)
    C = moveClause(C);
  for (size_t V = 0; V < Assigns.size(); ++V)
    if (Assigns[V] != LBool::Undef && Reason[V] != InvalidCRef)
      Reason[V] = Arena[Reason[V]];
  for (std::vector<Watcher> &WList : Watches)
    for (Watcher &W : WList)
      W.Clause = Arena[W.Clause];
  if (!LearntTags.empty()) {
    // The side table is keyed by CRef; follow the forwarding pointers.
    std::unordered_map<CRef, std::vector<uint32_t>> NewTags;
    NewTags.reserve(LearntTags.size());
    for (auto &KV : LearntTags)
      NewTags.emplace(Arena[KV.first], std::move(KV.second));
    LearntTags = std::move(NewTags);
  }
  ++Stats.ArenaCollections;
  Stats.ArenaWordsReclaimed += Arena.size() - NewArena.size();
  if (obs::enabled()) {
    obs::Registry::global().counter("sat.arena_collections").add(1);
    obs::instant("sat.compact_arena",
                 strFormat("\"words_before\":%zu,\"words_after\":%zu",
                           Arena.size(), NewArena.size()));
  }
  Arena = std::move(NewArena);
  WastedArenaWords = 0;
}

uint64_t Solver::luby(uint64_t I) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  uint64_t K = 1;
  while ((1ULL << (K + 1)) - 1 <= I + 1)
    ++K;
  while ((1ULL << K) - 1 != I + 1) {
    I -= (1ULL << K) - 1;
    K = 1;
    while ((1ULL << (K + 1)) - 1 <= I + 1)
      ++K;
  }
  return 1ULL << (K - 1);
}

void Solver::analyzeFinal(Lit P) {
  // Which assumptions forced ~P? Walk the trail top-down from P's seen
  // set: decisions (= assumptions; nothing else is decided below the
  // assumption prefix when this runs) join the conflict clause negated,
  // propagated literals expand to their reason clauses (MiniSat's
  // analyzeFinal). The result is a clause over negated assumptions that
  // the formula implies — the probe ladder's "budget K is infeasible"
  // certificate head.
  FinalConflict.clear();
  FinalConflict.push_back(P);
  if (decisionLevel() == 0) {
    // The assumption was refuted by level-0 propagation alone; its
    // attribution core is the implication cone of the forced literal.
    if (CoreTracking)
      collectLevel0VarCore(P.var());
    return;
  }
  SeenFlags[P.var()] = 1;
  size_t Level0End = static_cast<size_t>(TrailLims[0]);
  for (size_t I = Trail.size(); I > Level0End; --I) {
    Var V = Trail[I - 1].var();
    if (!SeenFlags[V])
      continue;
    if (Reason[V] == InvalidCRef) {
      assert(Level[V] > 0 && "decision below level 1");
      FinalConflict.push_back(~Trail[I - 1]);
    } else {
      if (CoreTracking)
        noteClauseTags(Reason[V], CoreOut);
      const Lit *Lits = clauseLits(Reason[V]);
      uint32_t Size = clauseSize(Reason[V]);
      for (uint32_t J = 1; J < Size; ++J) {
        if (Level[Lits[J].var()] > 0)
          SeenFlags[Lits[J].var()] = 1;
        else if (CoreTracking)
          noteUnitTags(Lits[J].var(), CoreOut);
      }
    }
    SeenFlags[V] = 0;
  }
  SeenFlags[P.var()] = 0;
  if (CoreTracking)
    finalizeCore();
}

void Solver::captureModel() {
  Model.assign(Assigns.size(), 0);
  for (size_t V = 0; V < Assigns.size(); ++V)
    Model[V] = Assigns[V] == LBool::True ? 1 : 0;
}

SolveResult Solver::solve() { return solve(std::vector<Lit>{}); }

SolveResult Solver::solve(const std::vector<Lit> &Assumptions) {
  WasInterrupted = false;
  PostInterruptConflicts = 0;
  FinalConflict.clear();
  ++Stats.SolveCalls;
  if (Unsatisfiable) {
    if (LogProof && (Proof.empty() || !Proof.back().empty()))
      Proof.push_back(ClauseLits{});
    return SolveResult::Unsat;
  }
  assert(decisionLevel() == 0 && "solve() must start at level 0");
  CoreOut.clear();
  if (CRef Confl = propagate(); Confl != InvalidCRef) {
    if (CoreTracking)
      collectLevel0Core(Confl);
    Unsatisfiable = true;
    if (LogProof)
      Proof.push_back(ClauseLits{});
    return SolveResult::Unsat;
  }
  MaxLearnts = std::max<uint64_t>(ProblemClauses / 3, 2000);
  const uint64_t ConflictsAtStart = Stats.Conflicts;
  uint64_t RestartBase = 100;
  uint64_t RestartCount = 0;
  uint64_t ConflictsUntilRestart = RestartBase * luby(RestartCount);
  uint64_t ConflictsThisRestart = 0;

  SolveResult Res = SolveResult::Unknown;
  ClauseLits Learnt;
  uint64_t ConflictsAtLastPoll = Stats.Conflicts;
  for (;;) {
    // Each iteration is one conflict, restart, or decision boundary — the
    // granularity at which cancellation and the conflict budget act.
    if (Interrupt && Interrupt->load(std::memory_order_relaxed)) {
      WasInterrupted = true;
      // Work done since the last poll that read false: bounds how stale a
      // cancellation can be (at most one conflict per poll interval).
      PostInterruptConflicts = Stats.Conflicts - ConflictsAtLastPoll;
      break; // Unknown.
    }
    ConflictsAtLastPoll = Stats.Conflicts;
    CRef Confl = propagate();
    if (Confl != InvalidCRef) {
      ++Stats.Conflicts;
      ++ConflictsThisRestart;
      if (decisionLevel() == 0) {
        if (CoreTracking)
          collectLevel0Core(Confl);
        Unsatisfiable = true;
        if (LogProof)
          Proof.push_back(ClauseLits{}); // The empty clause.
        Res = SolveResult::Unsat;
        break;
      }
      int BacktrackLevel;
      analyze(Confl, Learnt, BacktrackLevel);
      if (LogProof)
        Proof.push_back(Learnt);
      if (CoreTracking) {
        std::sort(ResolveTags.begin(), ResolveTags.end());
        ResolveTags.erase(std::unique(ResolveTags.begin(), ResolveTags.end()),
                          ResolveTags.end());
      }
      backtrack(BacktrackLevel);
      if (Learnt.size() == 1) {
        if (CoreTracking && !ResolveTags.empty())
          UnitTags[Learnt[0].var()] = ResolveTags;
        enqueue(Learnt[0], InvalidCRef);
      } else {
        CRef C = allocClause(Learnt, /*Learnt=*/true);
        if (CoreTracking && !ResolveTags.empty())
          LearntTags[C] = ResolveTags;
        Learnts.push_back(C);
        ++Stats.LearntClauses;
        attachClause(C);
        claBumpActivity(C);
        enqueue(Learnt[0], C);
      }
      varDecayActivity();
      claDecayActivity();
      if (ConflictBudget &&
          Stats.Conflicts - ConflictsAtStart >= ConflictBudget)
        break; // Unknown.
      continue;
    }
    // No conflict.
    if (ConflictsThisRestart >= ConflictsUntilRestart) {
      ++Stats.Restarts;
      ++RestartCount;
      ConflictsThisRestart = 0;
      ConflictsUntilRestart = RestartBase * luby(RestartCount);
      backtrack(0);
      continue;
    }
    if (Learnts.size() >= MaxLearnts + Trail.size()) {
      reduceDB();
      MaxLearnts += MaxLearnts / 10;
    }
    // Assumptions occupy the first decision levels (one each, re-asserted
    // after every restart); real decisions only happen above them.
    Lit Next;
    while (decisionLevel() < static_cast<int>(Assumptions.size())) {
      Lit A = Assumptions[decisionLevel()];
      assert(A.var() < numVars() && "assumption over unknown variable");
      LBool V = value(A);
      if (V == LBool::True) {
        // Already implied: open a dummy level to keep indices aligned.
        TrailLims.push_back(static_cast<int32_t>(Trail.size()));
        continue;
      }
      if (V == LBool::False) {
        // The formula plus earlier assumptions refutes this one.
        analyzeFinal(~A);
        if (LogProof)
          Proof.push_back(FinalConflict);
        Res = SolveResult::Unsat;
        goto done;
      }
      Next = A;
      break;
    }
    if (!Next.valid()) {
      Next = pickBranchLit();
      if (!Next.valid()) {
        captureModel();
        Res = SolveResult::Sat; // All variables assigned.
        break;
      }
      ++Stats.Decisions;
    }
    TrailLims.push_back(static_cast<int32_t>(Trail.size()));
    enqueue(Next, InvalidCRef);
  }
done:
  backtrack(0);
  return Res;
}

std::vector<ClauseLits> Solver::problemClauses() const {
  if (KeepAdded)
    return AddedClauses;
  std::vector<ClauseLits> Out;
  if (Unsatisfiable) {
    Out.push_back(ClauseLits{}); // The empty clause.
    return Out;
  }
  // Unit clauses as added. Learnt units share the level-0 trail with them
  // but are consequences, not problem clauses, so the trail is no guide.
  for (Lit L : AddedUnits)
    Out.push_back(ClauseLits{L});
  for (CRef C : Problems) {
    ClauseLits Lits;
    const Lit *P = clauseLits(C);
    for (uint32_t I = 0; I < clauseSize(C); ++I)
      Lits.push_back(P[I]);
    Out.push_back(std::move(Lits));
  }
  return Out;
}

bool Solver::modelValue(Var V) const {
  assert(V >= 0 && static_cast<size_t>(V) < Model.size() &&
         "no model for variable (no Sat answer yet?)");
  return Model[V] != 0;
}

bool Solver::modelValue(Lit L) const {
  bool V = modelValue(L.var());
  return L.negative() ? !V : V;
}
