//===- egraph/EGraph.cpp --------------------------------------------------===//

#include "egraph/EGraph.h"

#include "ir/Eval.h"
#include "support/Error.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace denali;
using namespace denali::egraph;
using denali::ir::Builtin;

EGraph::EGraph(const ir::Context &Ctx, bool FoldConstants)
    : Ctx(Ctx), FoldConstants(FoldConstants), OpIndex(Ctx.Ops.size()) {}

uint32_t EGraph::keyHash(ir::OpId Op, const ClassId *Children,
                         size_t NumChildren, uint64_t ConstVal,
                         bool Canonicalize) const {
  uint64_t H = (static_cast<uint64_t>(Op) << 32) ^ ConstVal;
  for (size_t I = 0; I < NumChildren; ++I)
    H = (H ^ (Canonicalize ? UF.find(Children[I]) : Children[I])) *
        0x100000001b3ull;
  return finishHash(H);
}

ENodeId EGraph::hashconsFind(ir::OpId Op, const ClassId *Children,
                             size_t NumChildren, uint64_t ConstVal) const {
  return Hashcons.find(
      keyHash(Op, Children, NumChildren, ConstVal, true), [&](ENodeId Id) {
        const ENode &N = Nodes[Id];
        if (N.Op != Op || N.ConstVal != ConstVal ||
            N.Children.size() != NumChildren)
          return false;
        const ClassId *Stored = N.Children.data();
        for (size_t I = 0; I < NumChildren; ++I)
          if (Stored[I] != UF.find(Children[I]))
            return false;
        return true;
      });
}

ENodeId EGraph::insertNode(ir::OpId Op, const ClassId *Children,
                           size_t NumChildren, uint64_t ConstVal,
                           bool &WasNew) {
  ENodeId Existing = hashconsFind(Op, Children, NumChildren, ConstVal);
  if (Existing != HashIndex::None) {
    WasNew = false;
    return Existing;
  }
  WasNew = true;
  // The children are copied before the node table grows: they may point
  // into another node.
  ChildList Canonical(Children, NumChildren);
  for (ClassId &C : Canonical)
    C = UF.find(C);
  ENodeId NId = static_cast<ENodeId>(Nodes.size());
  ClassId CId = UF.makeSet();
  assert(CId == ClassStates.size() && "class table out of sync");
  ClassStates.emplace_back();
  Nodes.push_back(ENode{Op, std::move(Canonical), ConstVal, CId, true});
  ++LiveNodeCount;
  Hashcons.insert(storedKeyHash(NId), NId);
  ClassStates[CId].Members.push_back(NId);
  StaleViews.push_back(CId); // Its view is born stale.
  if (Ctx.Ops.isConst(Op))
    ClassStates[CId].Constant = ConstVal;
  for (ClassId C : Nodes[NId].Children)
    ClassStates[C].Parents.push_back(NId);
  if (Op >= OpIndex.size())
    OpIndex.resize(std::max<size_t>(Op + 1, Ctx.Ops.size()));
  OpIndex[Op].push_back(NId);
  if (FoldConstants)
    FoldQueue.push_back(NId);
  if (LogChanges)
    ChangeLog.push_back(NId);
  ++Version;
  return NId;
}

std::optional<ClassId> EGraph::lookupNode(ir::OpId Op,
                                          const ClassId *Children,
                                          size_t NumChildren) const {
  ENodeId N = hashconsFind(Op, Children, NumChildren, 0);
  if (N == HashIndex::None)
    return std::nullopt;
  return classOf(N);
}

std::optional<ClassId> EGraph::lookupConst(uint64_t Value) const {
  ENodeId N = hashconsFind(Ctx.Ops.builtin(Builtin::Const), nullptr, 0, Value);
  if (N == HashIndex::None)
    return std::nullopt;
  return classOf(N);
}

ClassId EGraph::addNode(ir::OpId Op, const ClassId *Children,
                        size_t NumChildren) {
  assert(static_cast<size_t>(Ctx.Ops.info(Op).Arity) == NumChildren &&
         "arity mismatch");
  bool WasNew = false;
  ENodeId N = insertNode(Op, Children, NumChildren, 0, WasNew);
  ClassId C = classOf(N);
  if (WasNew && !InRebuild && Mode == RebuildMode::Eager)
    rebuild();
  return UF.find(C);
}

ClassId EGraph::addConst(uint64_t Value) {
  bool WasNew = false;
  ENodeId N =
      insertNode(Ctx.Ops.builtin(Builtin::Const), nullptr, 0, Value, WasNew);
  return classOf(N);
}

ClassId EGraph::addTerm(ir::TermId Term) {
  std::unordered_map<ir::TermId, ClassId> Memo;
  std::vector<std::pair<ir::TermId, bool>> Stack;
  Stack.push_back({Term, false});
  while (!Stack.empty()) {
    auto [Id, Expanded] = Stack.back();
    Stack.pop_back();
    if (Memo.count(Id))
      continue;
    const ir::TermNode &N = Ctx.Terms.node(Id);
    if (!Expanded) {
      if (Ctx.Ops.isConst(N.Op)) {
        Memo[Id] = addConst(N.ConstVal);
        continue;
      }
      if (N.Children.empty()) {
        Memo[Id] = addNode(N.Op, {});
        continue;
      }
      Stack.push_back({Id, true});
      for (ir::TermId C : N.Children)
        Stack.push_back({C, false});
      continue;
    }
    std::vector<ClassId> Children;
    Children.reserve(N.Children.size());
    for (ir::TermId C : N.Children)
      Children.push_back(Memo.at(C));
    Memo[Id] = addNode(N.Op, Children.data(), Children.size());
  }
  return UF.find(Memo.at(Term));
}

void EGraph::conflict(const std::string &Msg) {
  if (Inconsistent)
    return;
  Inconsistent = true;
  ConflictMsg = Msg;
}

void EGraph::mergeInto(ClassId Root, ClassId Gone) {
  ClassState &RS = ClassStates[Root];
  ClassState &GS = ClassStates[Gone];
  if (LogChanges)
    ChangeLog.insert(ChangeLog.end(), GS.Members.begin(), GS.Members.end());
  RS.Members.insert(RS.Members.end(), GS.Members.begin(), GS.Members.end());
  GS.Members.clear();
  markViewStale(Root);
  markViewStale(Gone);
  bool ConstantArrived = false;
  if (GS.Constant) {
    if (RS.Constant) {
      if (*RS.Constant != *GS.Constant)
        conflict(strFormat("constant conflict: %llu vs %llu merged",
                           static_cast<unsigned long long>(*RS.Constant),
                           static_cast<unsigned long long>(*GS.Constant)));
    } else {
      RS.Constant = GS.Constant;
      ConstantArrived = true;
    }
  }
  RS.DistinctFrom.insert(RS.DistinctFrom.end(), GS.DistinctFrom.begin(),
                         GS.DistinctFrom.end());
  GS.DistinctFrom.clear();
  // A newly known constant can enable folds, and constant-pattern
  // matches, in every parent.
  if (FoldConstants && ConstantArrived)
    for (ENodeId P : RS.Parents)
      FoldQueue.push_back(P);
  if (FoldConstants && ConstantArrived)
    for (ENodeId P : GS.Parents)
      FoldQueue.push_back(P);
  if (LogChanges && ConstantArrived) {
    ChangeLog.insert(ChangeLog.end(), RS.Parents.begin(), RS.Parents.end());
    ChangeLog.insert(ChangeLog.end(), GS.Parents.begin(), GS.Parents.end());
  }
  RS.Parents.insert(RS.Parents.end(), GS.Parents.begin(), GS.Parents.end());
  GS.Parents.clear();
}

void EGraph::proofLink(ClassId A, ClassId B, const Justification &J) {
  // Proof-forest nodes are the original (pre-find) class ids; an edge
  // records which concrete assertion united two trees. Re-root A's tree by
  // reversing the parent path from A, then hang A under B.
  if (ProofEdges.size() < ClassStates.size())
    ProofEdges.resize(ClassStates.size());
  ClassId Cur = A;
  ProofEdge Carry; // Edge that pointed *at* Cur before reversal.
  bool HaveCarry = false;
  while (true) {
    ProofEdge Next = ProofEdges[Cur];
    if (HaveCarry) {
      // Reverse: Cur's new parent is the previous child; the edge keeps its
      // justification but flips orientation.
      ProofEdges[Cur].Parent = Carry.Parent;
      ProofEdges[Cur].J = Carry.J;
      ProofEdges[Cur].SelfIsA = !Carry.SelfIsA;
    }
    if (Next.Parent == NoProofParent)
      break;
    Carry = Next;
    Carry.Parent = Cur; // From the old parent's view, Cur is the new parent.
    HaveCarry = true;
    Cur = Next.Parent;
  }
  // A is now the root of its tree; link it under B.
  ProofEdges[A].Parent = B;
  ProofEdges[A].J = J;
  ProofEdges[A].SelfIsA = true;
}

std::vector<ProofStep> EGraph::explain(ClassId A, ClassId B) const {
  std::vector<ProofStep> Out;
  if (!Provenance || A == B || !UF.sameSet(A, B))
    return Out;
  if (A >= ProofEdges.size() || B >= ProofEdges.size())
    return Out;
  // Ancestor paths to the forest root, then the lowest common ancestor.
  auto Ancestors = [&](ClassId C) {
    std::vector<ClassId> Path{C};
    while (ProofEdges[Path.back()].Parent != NoProofParent)
      Path.push_back(ProofEdges[Path.back()].Parent);
    return Path;
  };
  std::vector<ClassId> PathA = Ancestors(A);
  std::vector<ClassId> PathB = Ancestors(B);
  // Trim the common suffix; the last shared element is the LCA.
  size_t IA = PathA.size(), IB = PathB.size();
  while (IA > 0 && IB > 0 && PathA[IA - 1] == PathB[IB - 1]) {
    --IA;
    --IB;
  }
  // A and B are in the same union-find set, so the forest connects them.
  assert(IA < PathA.size() && PathA[IA] == PathB[IB] &&
         "proof forest disconnected for equal classes");
  ClassId Lca = PathA[IA];
  (void)Lca;
  // Steps up from A to the LCA: each edge (Child -> Parent).
  for (size_t I = 0; I < IA; ++I) {
    const ProofEdge &E = ProofEdges[PathA[I]];
    Out.push_back(ProofStep{PathA[I], E.Parent, E.J, E.SelfIsA});
  }
  // Steps down from the LCA to B: reverse of B's upward path.
  for (size_t I = IB; I-- > 0;) {
    const ProofEdge &E = ProofEdges[PathB[I]];
    Out.push_back(ProofStep{E.Parent, PathB[I], E.J, !E.SelfIsA});
  }
  return Out;
}

bool EGraph::mergeClasses(ClassId A, ClassId B, const Justification &J) {
  ClassId OrigA = A, OrigB = B;
  A = UF.find(A);
  B = UF.find(B);
  if (A == B)
    return false;
  if (areDistinct(A, B)) {
    conflict("merge of classes constrained distinct");
    return false;
  }
  if (Provenance)
    proofLink(OrigA, OrigB, J);
  ClassId Root = UF.unite(A, B);
  ClassId Gone = Root == A ? B : A;
  mergeInto(Root, Gone);
  Worklist.push_back(Root);
  ++Version;
  ++Stats.Merges;
  if (J.TheKind == Justification::Kind::Congruence)
    ++Stats.CongruenceMerges;
  else if (J.TheKind == Justification::Kind::ConstantFold)
    ++Stats.ConstantFolds;
  return true;
}

bool EGraph::assertEqual(ClassId A, ClassId B) {
  return assertEqual(A, B, Justification());
}

bool EGraph::assertEqual(ClassId A, ClassId B, const Justification &J) {
  bool Changed = mergeClasses(A, B, J);
  if (Changed && !InRebuild && Mode == RebuildMode::Eager)
    rebuild();
  return Changed;
}

bool EGraph::assertDistinct(ClassId A, ClassId B) {
  A = UF.find(A);
  B = UF.find(B);
  if (A == B) {
    conflict("distinctness asserted within one class");
    return false;
  }
  if (areDistinct(A, B))
    return false;
  ClassStates[A].DistinctFrom.push_back(B);
  ClassStates[B].DistinctFrom.push_back(A);
  ++Version;
  if (!InRebuild && Mode == RebuildMode::Eager)
    rebuild(); // Distinctness can make clause literals untenable.
  return true;
}

void EGraph::addClause(std::vector<Literal> Lits) {
  Clauses.push_back(Clause{std::move(Lits), false});
  if (!InRebuild && Mode == RebuildMode::Eager)
    rebuild();
}

void EGraph::setRebuildMode(RebuildMode M) {
  if (Mode == M)
    return;
  Mode = M;
  // Eager promises a closed graph after every mutation; honor it now.
  if (Mode == RebuildMode::Eager && !InRebuild)
    rebuild();
}

bool EGraph::areDistinct(ClassId A, ClassId B) const {
  A = UF.find(A);
  B = UF.find(B);
  if (A == B)
    return false;
  const std::optional<uint64_t> &CA = ClassStates[A].Constant;
  const std::optional<uint64_t> &CB = ClassStates[B].Constant;
  if (CA && CB && *CA != *CB)
    return true;
  const std::vector<ClassId> &ListA = ClassStates[A].DistinctFrom;
  const std::vector<ClassId> &ListB = ClassStates[B].DistinctFrom;
  const std::vector<ClassId> &Shorter =
      ListA.size() <= ListB.size() ? ListA : ListB;
  ClassId Other = ListA.size() <= ListB.size() ? B : A;
  for (ClassId D : Shorter)
    if (UF.find(D) == Other)
      return true;
  return false;
}

std::optional<uint64_t> EGraph::classConstant(ClassId C) const {
  return ClassStates[UF.find(C)].Constant;
}

std::vector<ENodeId> EGraph::classNodes(ClassId C) const {
  std::vector<ENodeId> Out;
  for (ENodeId N : ClassStates[UF.find(C)].Members)
    if (Nodes[N].Alive)
      Out.push_back(N);
  return Out;
}

std::vector<ClassId> EGraph::canonicalClasses() const {
  std::vector<ClassId> Out;
  for (ClassId C = 0; C < ClassStates.size(); ++C)
    if (UF.find(C) == C && !ClassStates[C].Members.empty())
      Out.push_back(C);
  return Out;
}

void EGraph::refreshOpViews() {
  // Compact once dead views outnumber live ones: move every fresh view to
  // a new arena, in class order. Moving is not refreshing; only the stale
  // views below are rebuilt.
  if (DeadViewEntries * 2 > Views.size()) {
    std::vector<OpMember> Live;
    Live.reserve(Views.size() - DeadViewEntries);
    for (ClassState &S : ClassStates) {
      if (S.ViewBegin == StaleView)
        continue;
      const uint32_t Begin = static_cast<uint32_t>(Live.size());
      Live.insert(Live.end(), Views.begin() + S.ViewBegin,
                  Views.begin() + S.ViewBegin + S.ViewLen);
      S.ViewBegin = Begin;
    }
    Views.swap(Live);
    DeadViewEntries = 0;
  }
  for (ClassId C : StaleViews) {
    if (UF.find(C) != C)
      continue; // Merged away: stays stale and is never read.
    ClassState &S = ClassStates[C];
    S.ViewBegin = static_cast<uint32_t>(Views.size());
    // A stable sort by operator: sort (operator, member position) pairs,
    // then turn each position into its node.
    for (size_t I = 0; I < S.Members.size(); ++I)
      if (Nodes[S.Members[I]].Alive)
        Views.push_back(
            OpMember{Nodes[S.Members[I]].Op, static_cast<ENodeId>(I)});
    S.ViewLen = static_cast<uint32_t>(Views.size() - S.ViewBegin);
    std::sort(Views.begin() + S.ViewBegin, Views.end(),
              [](const OpMember &A, const OpMember &B) {
                return A.Op != B.Op ? A.Op < B.Op : A.Node < B.Node;
              });
    for (auto It = Views.begin() + S.ViewBegin; It != Views.end(); ++It)
      It->Node = S.Members[It->Node];
  }
  StaleViews.clear();
}

size_t EGraph::numClasses() const {
  size_t Count = 0;
  for (ClassId C = 0; C < ClassStates.size(); ++C)
    if (UF.find(C) == C && !ClassStates[C].Members.empty())
      ++Count;
  return Count;
}

void EGraph::repair(ClassId C) {
  ++Stats.Repairs;
  // Copy the parent list out and empty the class's list, which keeps its
  // capacity; surviving entries are compacted to the front of the copy
  // and re-added below.
  std::vector<ENodeId> &Own = ClassStates[C].Parents;
  RepairParents.assign(Own.begin(), Own.end());
  Own.clear();
  if (RepairMark.size() < Nodes.size())
    RepairMark.resize(Nodes.size(), 0);
  if (++RepairEpoch == 0) {
    std::fill(RepairMark.begin(), RepairMark.end(), 0);
    RepairEpoch = 1;
  }
  size_t Kept = 0;
  for (size_t I = 0; I < RepairParents.size(); ++I) {
    const ENodeId NId = RepairParents[I];
    if (RepairMark[NId] == RepairEpoch)
      continue;
    RepairMark[NId] = RepairEpoch;
    ENode &N = Nodes[NId];
    if (!N.Alive)
      continue;
    // Take the slot filed under the stored children out, re-canonicalize,
    // and file the node again unless a congruent twin holds the new key.
    Hashcons.erase(storedKeyHash(NId), NId);
    bool Changed = false;
    for (ClassId &Child : N.Children) {
      ClassId Canon = UF.find(Child);
      Changed |= Canon != Child;
      Child = Canon;
    }
    ENodeId Twin = hashconsFind(N.Op, N.Children.data(), N.Children.size(),
                                N.ConstVal);
    if (Twin != HashIndex::None) {
      // Congruent twin: merge classes, retire this node.
      mergeClasses(classOf(NId), classOf(Twin),
                   Justification::congruence(Twin, NId));
      N.Alive = false;
      --LiveNodeCount;
      markViewStale(classOf(NId));
    } else {
      Hashcons.insert(storedKeyHash(NId), NId);
      if (Changed && FoldConstants)
        FoldQueue.push_back(NId);
      if (Changed && LogChanges)
        ChangeLog.push_back(NId);
      RepairParents[Kept++] = NId;
    }
  }
  // A congruence merge above can retire C itself (a parent may sit in
  // C's own class); its surviving parents then belong to the class that
  // absorbed it, which is already queued for its own repair.
  std::vector<ENodeId> &Into = ClassStates[UF.find(C)].Parents;
  Into.insert(Into.end(), RepairParents.begin(),
              RepairParents.begin() + Kept);
}

void EGraph::processFoldQueue() {
  while (!FoldQueue.empty()) {
    ENodeId NId = FoldQueue.front();
    FoldQueue.pop_front();
    const ENode &N = Nodes[NId];
    if (!N.Alive)
      continue;
    const ir::OpInfo &Info = Ctx.Ops.info(N.Op);
    if (Info.Kind != ir::OpKind::Builtin)
      continue;
    Builtin B = Info.BuiltinOp;
    if (B == Builtin::Const || B == Builtin::Select || B == Builtin::Store ||
        N.Children.empty())
      continue;
    if (classConstant(classOf(NId)))
      continue; // Already known constant.
    FoldArgs.clear();
    bool AllConst = true;
    for (ClassId C : N.Children) {
      std::optional<uint64_t> V = classConstant(C);
      if (!V) {
        AllConst = false;
        break;
      }
      FoldArgs.push_back(*V);
    }
    if (!AllConst)
      continue;
    uint64_t Val = ir::evalBuiltinInt(B, FoldArgs);
    ClassId ConstClass = addConst(Val);
    mergeClasses(classOf(NId), ConstClass,
                 Justification::constantFold(NId));
  }
}

bool EGraph::literalSatisfied(const Literal &L) const {
  if (L.TheKind == Literal::Kind::Eq)
    return sameClass(L.A, L.B);
  return areDistinct(L.A, L.B);
}

bool EGraph::literalUntenable(const Literal &L) const {
  if (L.TheKind == Literal::Kind::Eq)
    return areDistinct(L.A, L.B);
  return sameClass(L.A, L.B);
}

void EGraph::assertLiteral(const Literal &L) {
  if (L.TheKind == Literal::Kind::Eq)
    mergeClasses(L.A, L.B, Justification::clauseUnit());
  else
    assertDistinct(L.A, L.B);
}

void EGraph::processClauses() {
  for (Clause &C : Clauses) {
    if (C.Done)
      continue;
    bool Satisfied = false;
    for (const Literal &L : C.Lits)
      if (literalSatisfied(L)) {
        Satisfied = true;
        break;
      }
    if (Satisfied) {
      C.Done = true;
      continue;
    }
    // Delete untenable literals (paper, section 5).
    C.Lits.erase(std::remove_if(C.Lits.begin(), C.Lits.end(),
                                [&](const Literal &L) {
                                  return literalUntenable(L);
                                }),
                 C.Lits.end());
    if (C.Lits.empty()) {
      conflict("clause with all literals untenable");
      C.Done = true;
      continue;
    }
    if (C.Lits.size() == 1) {
      assertLiteral(C.Lits.front());
      C.Done = true;
    }
  }
}

void EGraph::rebuild() {
  assert(!InRebuild && "reentrant rebuild");
  if (rebuildPending())
    ++Stats.Rebuilds;
  InRebuild = true;
  // Closure is a fixpoint loop over three explicit queues (dirty-class
  // worklist, fold queue, clause scan) — never recursion — so 100x stress
  // graphs cannot overflow the native stack however deep a merge cascade
  // runs.
  for (;;) {
    if (!Worklist.empty()) {
      // Repairs queue onto the worklist, now RepairTodo's emptied buffer.
      RepairTodo.swap(Worklist);
      std::sort(RepairTodo.begin(), RepairTodo.end());
      RepairTodo.erase(std::unique(RepairTodo.begin(), RepairTodo.end()),
                       RepairTodo.end());
      for (ClassId C : RepairTodo)
        repair(UF.find(C));
      RepairTodo.clear();
      continue;
    }
    if (FoldConstants && !FoldQueue.empty()) {
      processFoldQueue();
      continue;
    }
    uint64_t Before = Version;
    processClauses();
    if (Version == Before && Worklist.empty() && FoldQueue.empty())
      break;
  }
  InRebuild = false;
}

std::string EGraph::nodeToString(ENodeId NId) const {
  const ENode &N = Nodes[NId];
  const ir::OpInfo &Info = Ctx.Ops.info(N.Op);
  if (Ctx.Ops.isConst(N.Op))
    return formatConstant(N.ConstVal);
  if (N.Children.empty())
    return Info.Name;
  std::string Out = "(" + Info.Name;
  for (ClassId C : N.Children)
    Out += strFormat(" c%u", UF.find(C));
  Out += ')';
  return Out;
}
