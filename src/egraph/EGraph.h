//===- egraph/EGraph.h - The E-graph ----------------------------*- C++ -*-===//
///
/// \file
/// The E-graph (paper, section 5): a term DAG augmented with an equivalence
/// relation on nodes. An E-graph of size O(n) can represent exponentially
/// many ways of computing a term; Denali's matcher saturates it with axiom
/// instances, and the constraint generator reads every machine-computable
/// alternative out of it.
///
/// Beyond plain congruence closure this E-graph carries the three fact
/// kinds the paper's matcher uses:
///   * equalities  — assertEqual / merge;
///   * distinctions — pairs of classes constrained *uncombinable*;
///   * clauses     — disjunctions of equality/distinction literals, with
///     untenable-literal deletion and unit propagation (section 5's
///     select-store example).
///
/// The E-graph also runs a constant analysis: classes whose value is a
/// known 64-bit constant fold through builtin operators (this is how
/// `mskbl(0, i)` collapses to `0`, enabling further matches).
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_EGRAPH_EGRAPH_H
#define DENALI_EGRAPH_EGRAPH_H

#include "egraph/HashIndex.h"
#include "egraph/UnionFind.h"
#include "ir/Term.h"
#include "support/FunctionRef.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace denali {
namespace egraph {

using ClassId = uint32_t;
using ENodeId = uint32_t;

/// An e-node's operand classes. Up to InlineCapacity of them (every
/// builtin operator's) live in the list itself, so reading a node's
/// children follows no pointer; a declared operator with more gets one
/// heap block, which the list owns alone: a copy copies the block, and a
/// move hands it over and leaves its source empty.
class ChildList {
public:
  static constexpr size_t InlineCapacity = 3;

  ChildList() = default;
  ChildList(const ClassId *Ids, size_t N) : Size(static_cast<uint32_t>(N)) {
    if (N > InlineCapacity)
      Heap = new ClassId[N];
    std::copy(Ids, Ids + N, data());
  }
  ChildList(const ChildList &O) : ChildList(O.data(), O.size()) {}
  ChildList(ChildList &&O) noexcept { take(O); }
  ChildList &operator=(const ChildList &O) {
    if (this != &O)
      *this = ChildList(O);
    return *this;
  }
  ChildList &operator=(ChildList &&O) noexcept {
    if (this != &O) {
      release();
      take(O);
    }
    return *this;
  }
  ~ChildList() { release(); }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const ClassId *data() const { return Size > InlineCapacity ? Heap : Inline; }
  ClassId *data() { return Size > InlineCapacity ? Heap : Inline; }
  const ClassId &operator[](size_t I) const { return data()[I]; }
  ClassId &operator[](size_t I) { return data()[I]; }
  const ClassId *begin() const { return data(); }
  const ClassId *end() const { return data() + Size; }
  ClassId *begin() { return data(); }
  ClassId *end() { return data() + Size; }

private:
  uint32_t Size = 0;
  union {
    ClassId Inline[InlineCapacity];
    ClassId *Heap;
  };

  void take(ChildList &O) {
    Size = O.Size;
    if (Size > InlineCapacity) {
      Heap = O.Heap;
      O.Size = 0;
    } else {
      std::copy(O.Inline, O.Inline + Size, Inline);
    }
  }
  void release() {
    if (Size > InlineCapacity)
      delete[] Heap;
    Size = 0;
  }
};

/// One E-node: an operator applied to equivalence classes.
struct ENode {
  ir::OpId Op = 0;
  ChildList Children;    ///< Canonical as of the last rebuild.
  uint64_t ConstVal = 0; ///< For Builtin::Const nodes.
  ClassId Class = 0;     ///< May be stale; canonicalize via find().
  bool Alive = true; ///< False once deduplicated against a congruent twin.
};
static_assert(sizeof(ENode) == 48, "the node table holds every e-node");

/// Why two classes were merged — one edge of the proof forest. The matcher
/// stamps axiom instances (rule id, firing round, substitution slice into
/// the graph's substitution arena); the graph itself stamps congruence
/// merges, constant folds, and clause unit propagations.
struct Justification {
  enum class Kind : uint8_t {
    External,     ///< assertEqual without an explicit reason (\assume, tests).
    Axiom,        ///< Matcher-instantiated axiom equality.
    Congruence,   ///< Two nodes became congruent twins during repair().
    ConstantFold, ///< A node's arguments all folded to constants.
    ClauseUnit,   ///< A recorded clause reduced to one equality literal.
  };
  Kind TheKind = Kind::External;
  uint32_t RuleId = ~0u;  ///< Axiom index (Kind::Axiom).
  uint32_t Round = 0;     ///< Matcher round the instance fired in.
  ENodeId NodeA = ~0u;    ///< Congruence: the surviving node; fold: the node.
  ENodeId NodeB = ~0u;    ///< Congruence: the retired twin.
  uint32_t SubstBegin = 0; ///< Slice into EGraph::substArena() (Axiom).
  uint32_t SubstLen = 0;

  static Justification axiom(uint32_t RuleId, uint32_t Round,
                             uint32_t SubstBegin, uint32_t SubstLen) {
    Justification J;
    J.TheKind = Kind::Axiom;
    J.RuleId = RuleId;
    J.Round = Round;
    J.SubstBegin = SubstBegin;
    J.SubstLen = SubstLen;
    return J;
  }
  static Justification congruence(ENodeId A, ENodeId B) {
    Justification J;
    J.TheKind = Kind::Congruence;
    J.NodeA = A;
    J.NodeB = B;
    return J;
  }
  static Justification constantFold(ENodeId N) {
    Justification J;
    J.TheKind = Kind::ConstantFold;
    J.NodeA = N;
    return J;
  }
  static Justification clauseUnit() {
    Justification J;
    J.TheKind = Kind::ClauseUnit;
    return J;
  }
};

/// One step of a derivation chain: the justification \p J asserted
/// From == To (Forward) or To == From (!Forward). Consecutive steps share
/// endpoints, so a chain From=A ... To=B is a proof that A and B are equal.
struct ProofStep {
  ClassId From = 0;
  ClassId To = 0;
  Justification J;
  bool Forward = true;
};

/// A literal of a recorded clause.
struct Literal {
  enum class Kind { Eq, Ne };
  Kind TheKind = Kind::Eq;
  ClassId A = 0;
  ClassId B = 0;

  static Literal eq(ClassId A, ClassId B) { return {Kind::Eq, A, B}; }
  static Literal ne(ClassId A, ClassId B) { return {Kind::Ne, A, B}; }
};

/// When congruence closure is restored after a mutation.
enum class RebuildMode {
  /// Every assertEqual/addNode/addClause immediately restores closure
  /// (repairs parents, folds constants, processes clauses). Simple, but a
  /// long instantiation batch pays one full clause scan per assertion.
  Eager,
  /// Mutations only union and enqueue dirty classes; closure is restored
  /// by an explicit batched rebuild() (egg-style). The matcher runs one
  /// rebuild per saturation round. Between a mutation and the next
  /// rebuild, union-find queries (find, sameClass, classConstant,
  /// areDistinct) stay exact — only congruence-derived merges, constant
  /// folds, and clause propagation lag.
  Deferred,
};

/// Mutation counters of one E-graph, cumulative over its lifetime. The
/// matcher reports per-saturation deltas through match.sched.* obs
/// counters, which is how scheduling regressions are diagnosed from a
/// metrics file.
struct RebuildStats {
  uint64_t Merges = 0;           ///< Class unions performed.
  uint64_t CongruenceMerges = 0; ///< Unions forced by congruent twins.
  uint64_t ConstantFolds = 0;    ///< Unions from the constant analysis.
  uint64_t Rebuilds = 0;         ///< rebuild() passes that found work.
  uint64_t Repairs = 0;          ///< Classes whose parents were rehashed.
};

class EGraph {
public:
  explicit EGraph(const ir::Context &Ctx, bool FoldConstants = true);

  //===--------------------------------------------------------------------===
  // Construction
  //===--------------------------------------------------------------------===

  /// Adds (or finds) the node op(children...). \returns its class. The
  /// children are read in place and copied only when a node is created, so
  /// a hash-cons hit allocates nothing.
  ClassId addNode(ir::OpId Op, const ClassId *Children, size_t NumChildren);
  ClassId addNode(ir::OpId Op, std::initializer_list<ClassId> Children) {
    return addNode(Op, Children.begin(), Children.size());
  }
  ClassId addNode(ir::OpId Op, const std::vector<ClassId> &Children) {
    return addNode(Op, Children.data(), Children.size());
  }

  /// Adds (or finds) the constant \p Value.
  ClassId addConst(uint64_t Value);

  /// Recursively adds an interned term (shares structure via the hashcons).
  ClassId addTerm(ir::TermId Term);

  //===--------------------------------------------------------------------===
  // Facts
  //===--------------------------------------------------------------------===

  /// Asserts A = B and restores congruence closure. \returns true if the
  /// graph changed.
  bool assertEqual(ClassId A, ClassId B);

  /// assertEqual with an explicit provenance justification (recorded only
  /// when provenance is enabled; see enableProvenance).
  bool assertEqual(ClassId A, ClassId B, const Justification &J);

  /// Asserts A != B (classes become uncombinable). \returns true if the
  /// graph changed. Sets the inconsistent flag if A and B are already equal.
  bool assertDistinct(ClassId A, ClassId B);

  /// Records the clause L1 | ... | Ln. Untenable literals are deleted as
  /// the graph evolves; a clause reduced to one literal asserts it.
  void addClause(std::vector<Literal> Lits);

  //===--------------------------------------------------------------------===
  // Rebuilding
  //===--------------------------------------------------------------------===

  /// Switches between per-mutation (Eager) and batched (Deferred)
  /// congruence restoration. Switching back to Eager first runs any
  /// pending rebuild, so the graph is always closed under Eager.
  void setRebuildMode(RebuildMode M);
  RebuildMode rebuildMode() const { return Mode; }

  /// Restores congruence closure, constant folding, and clause propagation
  /// to a fixpoint. Idempotent; a no-op-ish fast path when nothing is
  /// pending. Under Eager mode this runs automatically after every
  /// mutation; under Deferred the owner calls it (the matcher: once per
  /// saturation round).
  void rebuild();

  /// True when deferred work (dirty classes or unfolded constants) is
  /// queued for the next rebuild().
  bool rebuildPending() const {
    return !Worklist.empty() || (FoldConstants && !FoldQueue.empty());
  }

  /// Lifetime mutation counters (merges, congruence merges, folds,
  /// rebuild passes, class repairs).
  const RebuildStats &rebuildStats() const { return Stats; }

  //===--------------------------------------------------------------------===
  // Change log (semi-naive matching)
  //===--------------------------------------------------------------------===

  /// Switches recording of the nodes a mutation can give new e-matches on
  /// or off, emptying the log either way. Off by default; the matcher
  /// turns it on for the length of one saturate(). Four mutations log:
  ///   * a new node logs itself;
  ///   * a union logs every member of the class that loses it;
  ///   * a repair logs each surviving parent whose child ids it rewrote;
  ///   * a class that gains a constant logs its parents.
  /// A pattern match is a tree of nodes, each a member of the class its
  /// parent names in a child slot. An unlogged node existed before, kept
  /// its canonical child ids and its class id, and its children kept their
  /// constants, so a match through no logged node existed before the
  /// logged mutations too, with the same bindings.
  void setChangeLogging(bool On) {
    LogChanges = On;
    ChangeLog.clear();
  }

  /// The nodes logged since logging began or the log was last cleared, in
  /// logging order; may repeat and may include retired nodes.
  const std::vector<ENodeId> &changeLog() const { return ChangeLog; }
  void clearChangeLog() { ChangeLog.clear(); }

  //===--------------------------------------------------------------------===
  // Queries
  //===--------------------------------------------------------------------===

  ClassId find(ClassId C) const { return UF.find(C); }
  bool sameClass(ClassId A, ClassId B) const { return UF.sameSet(A, B); }

  /// Fully compresses the union-find so subsequent find() calls are pure
  /// reads. Until the next merge, the const query interface (find,
  /// classConstant, classNodes, areDistinct, ...) is then safe to call
  /// concurrently from many threads. The driver freezes every saturated
  /// graph so; ServerTest.SaturateOnceCompileManyConcurrently reads one
  /// from several threads.
  void compressPaths() const { UF.compressAll(); }

  /// True if A and B are constrained uncombinable, either explicitly or
  /// because they hold different constants.
  bool areDistinct(ClassId A, ClassId B) const;

  /// The known constant value of class \p C, if any.
  std::optional<uint64_t> classConstant(ClassId C) const;

  /// Live nodes in the class of \p C.
  std::vector<ENodeId> classNodes(ClassId C) const;

  /// Applies \p Fn to every live node in the class of \p C, in the order
  /// classNodes() lists them. Allocation-free; \p Fn must not mutate the
  /// graph.
  void forEachClassNode(ClassId C, FunctionRef<void(ENodeId)> Fn) const {
    for (ENodeId N : ClassStates[UF.find(C)].Members)
      if (Nodes[N].Alive)
        Fn(N);
  }

  //===--------------------------------------------------------------------===
  // Operator views (the e-matcher's class scans)
  //===--------------------------------------------------------------------===

  /// One entry of a class's operator view.
  struct OpMember {
    ir::OpId Op;
    ENodeId Node;
  };
  /// The entries of one operator in one class's view, begin() to end().
  struct OpRange {
    const OpMember *First = nullptr, *Last = nullptr;
    const OpMember *begin() const { return First; }
    const OpMember *end() const { return Last; }
  };

  /// The live nodes of the class of \p C whose operator is \p Op: exactly
  /// the nodes forEachClassNode() visits that carry \p Op, in the same
  /// order. Reads the class's operator view, a binary search away from
  /// the range, which must be fresh: refreshOpViews() must have run since
  /// the class was last created, merged or lost a member. The range is
  /// valid until the next refresh.
  OpRange opView(ClassId C, ir::OpId Op) const {
    const ClassState &S = ClassStates[UF.find(C)];
    assert(S.ViewBegin != StaleView &&
           "operator view read before refreshOpViews()");
    const OpMember *End = Views.data() + S.ViewBegin + S.ViewLen;
    const OpMember *It = std::lower_bound(
        Views.data() + S.ViewBegin, End, Op,
        [](const OpMember &M, ir::OpId O) { return M.Op < O; });
    const OpMember *Last = It;
    while (Last != End && Last->Op == Op)
      ++Last;
    return {It, Last};
  }

  /// Rebuilds the operator view of every class created, merged or retired
  /// from since the last refresh, and only those. Mutations only mark
  /// views stale; the matcher refreshes once per round, when it starts
  /// enumerating.
  void refreshOpViews();

  /// All canonical class representatives.
  std::vector<ClassId> canonicalClasses() const;

  /// Applies \p Fn to every node recorded as a parent of the class of
  /// \p C: every live node with a child in that class, plus possibly
  /// retired nodes and repeats. \p Fn must not mutate the graph.
  void forEachParent(ClassId C, FunctionRef<void(ENodeId)> Fn) const {
    for (ENodeId N : ClassStates[UF.find(C)].Parents)
      Fn(N);
  }

  /// Nodes whose operator is \p Op, in ascending id order (used by the
  /// e-matcher's root indexing). Includes retired nodes (check Alive) and
  /// nodes from many classes. The reference is valid until the next node
  /// is added.
  const std::vector<ENodeId> &nodesWithOp(ir::OpId Op) const {
    return Op < OpIndex.size() ? OpIndex[Op] : EmptyNodeList;
  }

  /// The class of the existing node op(children...), if the hash-cons
  /// holds one; never adds a node and never allocates. This is exactly
  /// the lookup addNode() makes first, so a miss here means addNode()
  /// would add a node (under deferred rebuilding, possibly a congruent
  /// twin of a node whose key a pending repair has not refreshed).
  std::optional<ClassId> lookupNode(ir::OpId Op, const ClassId *Children,
                                    size_t NumChildren) const;

  /// The class of the constant \p Value, if the graph holds it.
  std::optional<ClassId> lookupConst(uint64_t Value) const;

  const ENode &node(ENodeId N) const { return Nodes[N]; }
  ClassId classOf(ENodeId N) const { return UF.find(Nodes[N].Class); }

  size_t numNodes() const { return LiveNodeCount; }
  /// One past the largest node id, retired nodes included. Every node
  /// starts in a class of its own id, so this also bounds class ids.
  size_t nodeIdBound() const { return Nodes.size(); }
  size_t numClasses() const;
  size_t numClauses() const { return Clauses.size(); }

  /// True once contradictory facts were asserted (indicates unsound axioms
  /// or a bug); the message describes the first conflict.
  bool isInconsistent() const { return Inconsistent; }
  const std::string &inconsistencyMessage() const { return ConflictMsg; }

  /// Monotonically increasing counter bumped on every merge and node
  /// addition; the matcher uses it to detect quiescence.
  uint64_t version() const { return Version; }

  //===--------------------------------------------------------------------===
  // Provenance (union-find proof forest)
  //===--------------------------------------------------------------------===

  /// Switches on per-merge justification recording. Call before any merge
  /// (typically right after construction); the off path costs nothing —
  /// not even the proof-forest storage is grown.
  void enableProvenance() { Provenance = true; }
  bool provenanceEnabled() const { return Provenance; }

  /// Copies a substitution (variable -> canonical class bindings) into the
  /// graph's arena; \returns the slice start for Justification::SubstBegin.
  uint32_t internSubst(const ClassId *Bindings, size_t NumBindings) {
    uint32_t Begin = static_cast<uint32_t>(SubstArena.size());
    SubstArena.insert(SubstArena.end(), Bindings, Bindings + NumBindings);
    return Begin;
  }
  const std::vector<ClassId> &substArena() const { return SubstArena; }

  /// The derivation chain between two equal classes: a sequence of proof
  /// steps whose endpoints chain from find-equivalent \p A to \p B, each
  /// carrying the justification of one recorded merge. Empty when A and B
  /// are the same proof node (or provenance is off / they are not equal).
  /// The proof forest is kept separate from the query union-find and is
  /// never path-compressed, so chains replay actual assertion history.
  std::vector<ProofStep> explain(ClassId A, ClassId B) const;

  /// Renders one node (with class annotations) for debugging.
  std::string nodeToString(ENodeId N) const;

  const ir::Context &context() const { return Ctx; }

private:
  const ir::Context &Ctx;
  bool FoldConstants;

  UnionFind UF;
  std::vector<ENode> Nodes;
  size_t LiveNodeCount = 0;

  // The hash-cons: node ids filed under their stored keys (op, children,
  // constant). Children are canonical when a node is added or repaired; a
  // node whose child a pending repair has not rewritten stays filed under
  // the stale key until then. Every live node is filed at most once, and
  // no two filed nodes have equal keys.
  HashIndex Hashcons;

  // Per-class state, indexed by (possibly stale) class id; authoritative
  // only at the canonical representative.
  struct ClassState {
    /// Every node ever merged in, retired ones included, in arrival order.
    /// classNodes() lists them in this order, which the universe builder
    /// and through it the SAT variable order and the goldens depend on.
    std::vector<ENodeId> Members;
    std::vector<ENodeId> Parents; ///< Nodes using this class as a child.
    std::optional<uint64_t> Constant;
    std::vector<ClassId> DistinctFrom; ///< Canonicalize on use.
    /// The operator view, Views[ViewBegin, ViewBegin + ViewLen): the live
    /// members, stably sorted by operator. ViewBegin is StaleView from
    /// the class's creation, union or member retirement until
    /// refreshOpViews().
    uint32_t ViewBegin = StaleView;
    uint32_t ViewLen = 0;
  };
  static constexpr uint32_t StaleView = ~0u;
  std::vector<ClassState> ClassStates;
  // Every class's operator view, one after another (a per-class vector
  // would cost every class id, live or merged away, a vector header). A
  // refresh appends the new view; the old one is dead until compaction.
  std::vector<OpMember> Views;
  size_t DeadViewEntries = 0;
  // The classes whose views are stale, each once.
  std::vector<ClassId> StaleViews;
  void markViewStale(ClassId C) {
    ClassState &S = ClassStates[C];
    if (S.ViewBegin == StaleView)
      return; // Already listed: new classes are listed when created.
    DeadViewEntries += S.ViewLen;
    S.ViewBegin = StaleView;
    S.ViewLen = 0;
    StaleViews.push_back(C);
  }

  // Root-op index for the matcher, by operator id.
  std::vector<std::vector<ENodeId>> OpIndex;
  std::vector<ENodeId> EmptyNodeList;

  // Pending congruence repairs (classes whose parents must be rehashed).
  std::vector<ClassId> Worklist;
  // Scratch of rebuild() and repair(), reused across passes: the classes
  // one rebuild pass repairs, and the parent list one repair walks.
  std::vector<ClassId> RepairTodo;
  std::vector<ENodeId> RepairParents;
  // repair()'s visited marks, by node id: a node is visited in the current
  // repair when its mark equals RepairEpoch.
  std::vector<uint32_t> RepairMark;
  uint32_t RepairEpoch = 0;
  // Nodes whose constant-fold status should be (re)checked.
  std::deque<ENodeId> FoldQueue;
  // processFoldQueue()'s operand values, reused across fold candidates.
  std::vector<uint64_t> FoldArgs;

  struct Clause {
    std::vector<Literal> Lits;
    bool Done = false;
  };
  std::vector<Clause> Clauses;

  bool LogChanges = false;
  std::vector<ENodeId> ChangeLog;

  bool Inconsistent = false;
  std::string ConflictMsg;
  uint64_t Version = 0;
  bool InRebuild = false;
  RebuildMode Mode = RebuildMode::Eager;
  RebuildStats Stats;

  // Proof forest (provenance): per class id, the parent edge and its
  // justification. Parent pointers are reversed on union (re-rooting), never
  // compressed — explain() walks real assertion history. Grown lazily, only
  // when Provenance is on.
  bool Provenance = false;
  static constexpr ClassId NoProofParent = ~0u;
  struct ProofEdge {
    ClassId Parent = NoProofParent;
    Justification J;
    bool SelfIsA = true; ///< The child endpoint was the 'A' side of J.
  };
  std::vector<ProofEdge> ProofEdges;
  std::vector<ClassId> SubstArena;

  /// Adds the proof-forest edge for a recorded merge of (pre-find) A and B.
  void proofLink(ClassId A, ClassId B, const Justification &J);

  /// The key hash of op(children...) with constant \p ConstVal; with
  /// \p Canonicalize, of the children's canonical classes.
  uint32_t keyHash(ir::OpId Op, const ClassId *Children, size_t NumChildren,
                   uint64_t ConstVal, bool Canonicalize) const;
  /// The node filed under the key op(find(children)...), or
  /// HashIndex::None.
  ENodeId hashconsFind(ir::OpId Op, const ClassId *Children,
                       size_t NumChildren, uint64_t ConstVal) const;
  /// The hash of node \p N's stored key.
  uint32_t storedKeyHash(ENodeId N) const {
    const ENode &Node = Nodes[N];
    return keyHash(Node.Op, Node.Children.data(), Node.Children.size(),
                   Node.ConstVal, false);
  }
  ENodeId insertNode(ir::OpId Op, const ClassId *Children,
                     size_t NumChildren, uint64_t ConstVal, bool &WasNew);
  void mergeInto(ClassId Root, ClassId Gone);
  bool mergeClasses(ClassId A, ClassId B,
                    const Justification &J = Justification());
  void repair(ClassId C);
  void processClauses();
  void processFoldQueue();
  void conflict(const std::string &Msg);
  bool literalSatisfied(const Literal &L) const;
  bool literalUntenable(const Literal &L) const;
  void assertLiteral(const Literal &L);
};

} // namespace egraph
} // namespace denali

#endif // DENALI_EGRAPH_EGRAPH_H
