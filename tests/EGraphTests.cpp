//===- tests/EGraphTests.cpp - E-graph unit & property tests --------------===//

#include "egraph/Analysis.h"
#include "egraph/EGraph.h"

#include "ir/Eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace denali;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

class EGraphTest : public ::testing::Test {
protected:
  ir::Context Ctx;
  EGraph G{Ctx};

  ClassId c(uint64_t V) { return G.addConst(V); }
  ClassId v(const std::string &Name) {
    return G.addNode(Ctx.Ops.makeVariable(Name), {});
  }
  ClassId app(Builtin B, std::vector<ClassId> Args) {
    return G.addNode(Ctx.Ops.builtin(B), Args);
  }
};

TEST_F(EGraphTest, HashconsIdenticalNodes) {
  ClassId A = app(Builtin::Add64, {v("x"), c(1)});
  ClassId B = app(Builtin::Add64, {v("x"), c(1)});
  EXPECT_EQ(G.find(A), G.find(B));
}

TEST_F(EGraphTest, DistinctNodesDistinctClasses) {
  ClassId A = app(Builtin::Add64, {v("x"), c(1)});
  ClassId B = app(Builtin::Add64, {v("x"), c(2)});
  EXPECT_NE(G.find(A), G.find(B));
}

TEST_F(EGraphTest, MergeIsIdempotent) {
  ClassId X = v("x");
  ClassId Y = v("y");
  EXPECT_TRUE(G.assertEqual(X, Y));
  EXPECT_FALSE(G.assertEqual(X, Y));
  EXPECT_TRUE(G.sameClass(X, Y));
}

TEST_F(EGraphTest, CongruenceUpward) {
  // x = y  ==>  f(x) = f(y).
  ClassId X = v("x");
  ClassId Y = v("y");
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  EXPECT_FALSE(G.sameClass(FX, FY));
  G.assertEqual(X, Y);
  EXPECT_TRUE(G.sameClass(FX, FY));
}

TEST_F(EGraphTest, CongruenceTransitiveChain) {
  // a=b, b=c ==> g(f(a)) = g(f(c)).
  ClassId A = v("a"), B = v("b"), C = v("c");
  ClassId GFA = app(Builtin::Not64, {app(Builtin::Neg64, {A})});
  ClassId GFC = app(Builtin::Not64, {app(Builtin::Neg64, {C})});
  G.assertEqual(A, B);
  G.assertEqual(B, C);
  EXPECT_TRUE(G.sameClass(GFA, GFC));
}

TEST_F(EGraphTest, CongruenceMultiArg) {
  ClassId A = v("a"), B = v("b");
  ClassId F1 = app(Builtin::Add64, {A, B});
  ClassId F2 = app(Builtin::Add64, {B, A});
  EXPECT_FALSE(G.sameClass(F1, F2));
  G.assertEqual(A, B);
  EXPECT_TRUE(G.sameClass(F1, F2));
}

TEST_F(EGraphTest, NewNodeJoinsExistingCongruence) {
  // Merge first, then add the congruent node: it must land in the class.
  ClassId X = v("x");
  ClassId Y = v("y");
  G.assertEqual(X, Y);
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  EXPECT_TRUE(G.sameClass(FX, FY));
}

TEST_F(EGraphTest, ConstantAnalysisAtInsert) {
  ClassId C5 = c(5);
  auto K = G.classConstant(C5);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 5u);
  EXPECT_FALSE(G.classConstant(v("x")).has_value());
}

TEST_F(EGraphTest, ConstantPropagationOnMerge) {
  ClassId X = v("x");
  G.assertEqual(X, c(7));
  auto K = G.classConstant(X);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 7u);
}

TEST_F(EGraphTest, ConstantFolding) {
  ClassId Sum = app(Builtin::Add64, {c(3), c(4)});
  auto K = G.classConstant(Sum);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 7u);
  EXPECT_TRUE(G.sameClass(Sum, c(7)));
}

TEST_F(EGraphTest, FoldingCascades) {
  // (3 + 4) * 2 folds all the way to 14.
  ClassId T = app(Builtin::Mul64, {app(Builtin::Add64, {c(3), c(4)}), c(2)});
  auto K = G.classConstant(T);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 14u);
}

TEST_F(EGraphTest, FoldingTriggeredByLaterMerge) {
  // x + 4 is not constant until x = 3 arrives.
  ClassId X = v("x");
  ClassId Sum = app(Builtin::Add64, {X, c(4)});
  EXPECT_FALSE(G.classConstant(Sum).has_value());
  G.assertEqual(X, c(3));
  auto K = G.classConstant(Sum);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 7u);
}

TEST_F(EGraphTest, FoldingMskblToZero) {
  // The byteswap chain relies on mskbl(0, i) folding to 0.
  ClassId T = app(Builtin::Mskbl, {c(0), c(1)});
  auto K = G.classConstant(T);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 0u);
}

TEST_F(EGraphTest, DistinctConstantsAreDistinct) {
  EXPECT_TRUE(G.areDistinct(c(1), c(2)));
  EXPECT_FALSE(G.areDistinct(c(1), c(1)));
}

TEST_F(EGraphTest, ExplicitDistinction) {
  ClassId X = v("x");
  ClassId Y = v("y");
  EXPECT_FALSE(G.areDistinct(X, Y));
  EXPECT_TRUE(G.assertDistinct(X, Y));
  EXPECT_TRUE(G.areDistinct(X, Y));
  EXPECT_FALSE(G.assertDistinct(X, Y)); // Already recorded.
}

TEST_F(EGraphTest, MergingDistinctClassesIsInconsistent) {
  ClassId X = v("x");
  ClassId Y = v("y");
  G.assertDistinct(X, Y);
  G.assertEqual(X, Y);
  EXPECT_TRUE(G.isInconsistent());
}

TEST_F(EGraphTest, DistinctionSurvivesMerges) {
  ClassId X = v("x"), Y = v("y"), Z = v("z");
  G.assertDistinct(X, Y);
  G.assertEqual(Y, Z); // Z joins Y's class.
  EXPECT_TRUE(G.areDistinct(X, Z));
}

TEST_F(EGraphTest, ConstantConflictFlagsInconsistency) {
  G.assertEqual(c(1), c(2));
  EXPECT_TRUE(G.isInconsistent());
  EXPECT_FALSE(G.inconsistencyMessage().empty());
}

//===----------------------------------------------------------------------===
// Clauses: untenable-literal deletion and unit propagation (section 5).
//===----------------------------------------------------------------------===

TEST_F(EGraphTest, ClauseUnitPropagation) {
  // (x = y | 1 = 2): the second literal is untenable, so x = y is asserted.
  ClassId X = v("x");
  ClassId Y = v("y");
  G.addClause({Literal::eq(X, Y), Literal::eq(c(1), c(2))});
  EXPECT_TRUE(G.sameClass(X, Y));
}

TEST_F(EGraphTest, ClauseSatisfiedIsInert) {
  // (x = x | y = z) is satisfied; y and z must stay separate.
  ClassId X = v("x"), Y = v("y"), Z = v("z");
  G.addClause({Literal::eq(X, X), Literal::eq(Y, Z)});
  EXPECT_FALSE(G.sameClass(Y, Z));
}

TEST_F(EGraphTest, ClauseBecomesUnitLater) {
  // (a = b | x = y); later a != b arrives, forcing x = y.
  ClassId A = v("a"), B = v("b"), X = v("x"), Y = v("y");
  G.addClause({Literal::eq(A, B), Literal::eq(X, Y)});
  EXPECT_FALSE(G.sameClass(X, Y));
  G.assertDistinct(A, B);
  EXPECT_TRUE(G.sameClass(X, Y));
}

TEST_F(EGraphTest, SelectStoreStyleClause) {
  // The paper's example: p = p+8 is untenable (constant-offset oracle is
  // modeled here by explicit distinctness), so the select-store equality
  // fires and gives load/store reordering freedom.
  ClassId M = v("M");
  ClassId P = v("p");
  ClassId X = v("xval");
  ClassId P8 = app(Builtin::Add64, {P, c(8)});
  ClassId StoreT = app(Builtin::Store, {M, P, X});
  ClassId LoadAfter = app(Builtin::Select, {StoreT, P8});
  ClassId LoadBefore = app(Builtin::Select, {M, P8});
  G.assertDistinct(P, P8);
  G.addClause({Literal::eq(P, P8), Literal::eq(LoadAfter, LoadBefore)});
  EXPECT_TRUE(G.sameClass(LoadAfter, LoadBefore));
}

TEST_F(EGraphTest, NeLiteralAsserted) {
  // (1 = 2 | x != y) forces the distinction.
  ClassId X = v("x"), Y = v("y");
  G.addClause({Literal::eq(c(1), c(2)), Literal::ne(X, Y)});
  EXPECT_TRUE(G.areDistinct(X, Y));
}

TEST_F(EGraphTest, EmptyClauseIsConflict) {
  G.addClause({Literal::eq(c(1), c(2)), Literal::ne(c(3), c(3))});
  EXPECT_TRUE(G.isInconsistent());
}

//===----------------------------------------------------------------------===
// Introspection used by the matcher and encoder.
//===----------------------------------------------------------------------===

TEST_F(EGraphTest, ClassNodesListsAlternatives) {
  ClassId A = app(Builtin::Mul64, {v("x"), c(4)});
  ClassId B = app(Builtin::Shl64, {v("x"), c(2)});
  G.assertEqual(A, B);
  auto Nodes = G.classNodes(A);
  EXPECT_EQ(Nodes.size(), 2u);
}

TEST_F(EGraphTest, NodesWithOpIndex) {
  app(Builtin::Add64, {v("x"), c(1)});
  app(Builtin::Add64, {v("y"), c(2)});
  size_t Count = 0;
  for (ENodeId N : G.nodesWithOp(Ctx.Ops.builtin(Builtin::Add64)))
    if (G.node(N).Alive)
      ++Count;
  EXPECT_EQ(Count, 2u);
}

TEST_F(EGraphTest, VersionAdvancesOnChange) {
  uint64_t V0 = G.version();
  ClassId X = v("x");
  EXPECT_GT(G.version(), V0);
  uint64_t V1 = G.version();
  G.assertEqual(X, c(3));
  EXPECT_GT(G.version(), V1);
  uint64_t V2 = G.version();
  G.assertEqual(X, c(3)); // No-op.
  EXPECT_EQ(G.version(), V2);
}

TEST_F(EGraphTest, AddTermSharesStructure) {
  ir::TermId T = Ctx.Terms.makeBuiltin(
      Builtin::Add64, {Ctx.Terms.makeBuiltin(
                           Builtin::Mul64, {Ctx.Terms.makeVar("reg6"),
                                            Ctx.Terms.makeConst(4)}),
                       Ctx.Terms.makeConst(1)});
  ClassId C1 = G.addTerm(T);
  ClassId C2 = G.addTerm(T);
  EXPECT_EQ(G.find(C1), G.find(C2));
  EXPECT_EQ(G.numClasses(), 5u); // reg6, 4, 1, (mul), (add).
}

TEST_F(EGraphTest, NumNodesTracksLiveOnly) {
  ClassId X = v("x");
  ClassId Y = v("y");
  size_t Before = G.numNodes();
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  (void)FX;
  (void)FY;
  EXPECT_EQ(G.numNodes(), Before + 2);
  G.assertEqual(X, Y); // neg(x) and neg(y) become congruent; one dies.
  EXPECT_EQ(G.numNodes(), Before + 1);
}

//===----------------------------------------------------------------------===
// The change log: the nodes through which a mutation can give a pattern a
// new match (what semi-naive matching walks from).
//===----------------------------------------------------------------------===

class ChangeLogTest : public EGraphTest {
protected:
  void SetUp() override {
    G.setRebuildMode(RebuildMode::Deferred);
    G.setChangeLogging(true);
  }
  /// The one live node of class \p C.
  ENodeId nodeOf(ClassId C) {
    std::vector<ENodeId> Nodes = G.classNodes(C);
    EXPECT_EQ(Nodes.size(), 1u);
    return Nodes.front();
  }
  bool logged(ENodeId N) {
    const std::vector<ENodeId> &Log = G.changeLog();
    return std::find(Log.begin(), Log.end(), N) != Log.end();
  }
};

TEST_F(EGraphTest, ChangeLogIsOffByDefault) {
  app(Builtin::Add64, {v("x"), c(1)});
  EXPECT_TRUE(G.changeLog().empty());
}

TEST_F(ChangeLogTest, NewNodeIsLogged) {
  ClassId X = v("x");
  ENodeId XN = nodeOf(X);
  EXPECT_TRUE(logged(XN));
  G.clearChangeLog();
  ClassId Neg = app(Builtin::Neg64, {X});
  EXPECT_TRUE(logged(nodeOf(Neg)));
  EXPECT_FALSE(logged(XN));
  // Finding an existing node is no change.
  G.clearChangeLog();
  app(Builtin::Neg64, {X});
  EXPECT_TRUE(G.changeLog().empty());
}

TEST_F(ChangeLogTest, UnionLogsTheLosingClassMembers) {
  // x's class is the larger one, so it survives and y's class loses.
  ClassId X = v("x"), X2 = v("x2"), Y = v("y");
  G.assertEqual(X, X2);
  G.rebuild();
  G.clearChangeLog();
  ENodeId YN = nodeOf(Y);
  G.assertEqual(X, Y);
  ASSERT_EQ(G.find(Y), G.find(X));
  EXPECT_TRUE(logged(YN));
  for (ENodeId N : G.classNodes(X))
    EXPECT_EQ(logged(N), N == YN) << N;
}

TEST_F(ChangeLogTest, RepairLogsParentsWhoseChildIdsItRewrites) {
  ClassId X = v("x"), X2 = v("x2"), Y = v("y");
  G.assertEqual(X, X2);
  ClassId NotX = app(Builtin::Not64, {X});
  ClassId NegY = app(Builtin::Neg64, {Y});
  G.rebuild();
  ENodeId NotXN = nodeOf(NotX), NegYN = nodeOf(NegY);
  G.clearChangeLog();
  G.assertEqual(X, Y); // y's class loses: its parents' child ids go stale.
  EXPECT_FALSE(logged(NegYN));
  G.rebuild();
  // The repair rewrote neg(y) to neg(x); x's parents kept their child ids.
  EXPECT_EQ(G.node(NegYN).Children[0], G.find(X));
  EXPECT_TRUE(logged(NegYN));
  EXPECT_FALSE(logged(NotXN));
}

TEST_F(ChangeLogTest, ClassGainingAConstantLogsItsParents) {
  // x's class is the larger one and survives; the constant's class loses
  // and hands x's class its constant, so neg(x) can now match a constant
  // pattern with unchanged child ids.
  ClassId X = v("x"), X2 = v("x2");
  G.assertEqual(X, X2);
  ClassId NegX = app(Builtin::Neg64, {X});
  ClassId Five = c(5);
  G.rebuild();
  G.clearChangeLog();
  G.assertEqual(X, Five);
  ASSERT_EQ(G.find(Five), G.find(X));
  EXPECT_TRUE(logged(nodeOf(NegX)));
}

TEST_F(EGraphTest, Figure2UnionLogsANodeOfTheMatchItCreates) {
  // k * 2**n cannot match reg6 * 4 until 4 = 2**2. Without constant
  // folding (which would unite them as soon as 2**2 exists) that union is
  // the only change, and the match it creates, rooted at the multiply and
  // running through 2**2, must use a logged node.
  EGraph H(Ctx, /*FoldConstants=*/false);
  H.setRebuildMode(RebuildMode::Deferred);
  auto Op = [&](Builtin B) { return Ctx.Ops.builtin(B); };
  ClassId Four = H.addConst(4);
  ClassId Mul =
      H.addNode(Op(Builtin::Mul64), {H.addNode(Ctx.Ops.makeVariable("reg6"),
                                               {}),
                                     Four});
  ClassId Sum = H.addNode(Op(Builtin::Add64), {Mul, H.addConst(1)});
  ClassId Pow = H.addNode(Op(Builtin::Pow), {H.addConst(2), H.addConst(2)});
  H.rebuild();
  ASSERT_FALSE(H.sameClass(Pow, Four));
  ENodeId MulN = H.classNodes(Mul).front();
  ENodeId PowN = H.classNodes(Pow).front();
  ENodeId SumN = H.classNodes(Sum).front();
  H.setChangeLogging(true);
  H.assertEqual(Pow, Four);
  H.rebuild();
  const std::vector<ENodeId> &Log = H.changeLog();
  auto Logged = [&](ENodeId N) {
    return std::find(Log.begin(), Log.end(), N) != Log.end();
  };
  EXPECT_TRUE(Logged(MulN) || Logged(PowN));
  // The sum's child ids and its children's classes are unchanged.
  EXPECT_FALSE(Logged(SumN));
}

TEST_F(ChangeLogTest, SwitchingLoggingEmptiesTheLog) {
  v("x");
  EXPECT_FALSE(G.changeLog().empty());
  G.setChangeLogging(false);
  EXPECT_TRUE(G.changeLog().empty());
  v("y");
  EXPECT_TRUE(G.changeLog().empty());
}

TEST_F(EGraphTest, RepairKeepsParentsOfAClassItRetires) {
  // Repairing x's class finds g(y) congruent to g(x), a member of x's own
  // class, and the union that follows retires x's class into the larger
  // class of g(y). The parent h(y), which the same repair rewrote to
  // h(x), must move to the surviving class: a later union there has to
  // reach it through the parent list to find h(y) congruent to h(w).
  ir::OpId GOp = Ctx.Ops.declareOp("g", 1);
  ir::OpId HOp = Ctx.Ops.declareOp("h", 1);
  ClassId X = v("x"), Y = v("y"), W = v("w");
  ClassId Gx = G.addNode(GOp, {X});
  G.assertEqual(X, Gx);
  ClassId Gy = G.addNode(GOp, {Y});
  G.assertEqual(Gy, v("z1"));
  G.assertEqual(Gy, v("z2"));
  G.assertEqual(Gy, v("z3"));
  ClassId Hy = G.addNode(HOp, {Y});
  ClassId Hw = G.addNode(HOp, {W});
  G.assertEqual(X, Y);
  ASSERT_TRUE(G.sameClass(X, Gy));
  bool Listed = false;
  G.forEachParent(X, [&](ENodeId N) { Listed |= G.classOf(N) == G.find(Hy); });
  EXPECT_TRUE(Listed);
  G.assertEqual(W, Gy);
  EXPECT_TRUE(G.sameClass(Hy, Hw));
}

TEST_F(EGraphTest, LookupFindsExistingNodesWithoutAdding) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x"), Y = v("y");
  ClassId Add = app(Builtin::Add64, {X, c(1)});
  size_t Nodes = G.numNodes();
  uint64_t Version = G.version();
  ir::OpId AddOp = Ctx.Ops.builtin(Builtin::Add64);
  ClassId One = *G.lookupConst(1);
  ClassId Args[] = {X, One};
  EXPECT_EQ(G.lookupNode(AddOp, Args, 2), G.find(Add));
  EXPECT_FALSE(G.lookupConst(2).has_value());
  ClassId Other[] = {Y, One};
  EXPECT_FALSE(G.lookupNode(AddOp, Other, 2).has_value());
  EXPECT_EQ(G.numNodes(), Nodes);
  EXPECT_EQ(G.version(), Version);
  // Children are canonicalized, exactly as addNode does: after x = y the
  // lookup through y finds add(x, 1) only if x's class survived (its key
  // is not stale), and addNode agrees either way.
  G.assertEqual(X, Y);
  std::optional<ClassId> Found = G.lookupNode(AddOp, Other, 2);
  size_t Before = G.numNodes();
  ClassId Added = G.addNode(AddOp, {Y, One});
  EXPECT_EQ(Found.has_value(), G.numNodes() == Before);
  if (Found) {
    EXPECT_EQ(*Found, Added);
  }
}

//===----------------------------------------------------------------------===
// Deferred rebuilding: mutations only union and enqueue; congruence,
// constant folding, and clause propagation are restored by an explicit
// rebuild() (egg-style, one per matcher round).
//===----------------------------------------------------------------------===

TEST_F(EGraphTest, DeferredDefersCongruenceUntilRebuild) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x");
  ClassId Y = v("y");
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  G.assertEqual(X, Y);
  // The union itself is immediate; the upward f(x)=f(y) merge lags.
  EXPECT_TRUE(G.sameClass(X, Y));
  EXPECT_FALSE(G.sameClass(FX, FY));
  EXPECT_TRUE(G.rebuildPending());
  G.rebuild();
  EXPECT_FALSE(G.rebuildPending());
  EXPECT_TRUE(G.sameClass(FX, FY));
  EXPECT_GE(G.rebuildStats().CongruenceMerges, 1u);
  EXPECT_GE(G.rebuildStats().Rebuilds, 1u);
}

TEST_F(EGraphTest, DeferredDefersConstantFoldUntilRebuild) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId Sum = app(Builtin::Add64, {c(2), c(3)});
  EXPECT_FALSE(G.classConstant(Sum).has_value());
  G.rebuild();
  auto K = G.classConstant(Sum);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(*K, 5u);
  EXPECT_GE(G.rebuildStats().ConstantFolds, 1u);
}

TEST_F(EGraphTest, DeferredDefersClauseUnitUntilRebuild) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x");
  ClassId Y = v("y");
  // A unit clause asserts its literal — but only at the next rebuild.
  G.addClause({Literal::eq(X, Y)});
  EXPECT_FALSE(G.sameClass(X, Y));
  G.rebuild();
  EXPECT_TRUE(G.sameClass(X, Y));
}

TEST_F(EGraphTest, SwitchingToEagerRunsPendingRebuild) {
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x");
  ClassId Y = v("y");
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  G.assertEqual(X, Y);
  EXPECT_TRUE(G.rebuildPending());
  // The graph must always be closed under Eager, so the switch flushes.
  G.setRebuildMode(RebuildMode::Eager);
  EXPECT_FALSE(G.rebuildPending());
  EXPECT_TRUE(G.sameClass(FX, FY));
}

TEST_F(EGraphTest, ProvenanceRecordedAcrossDeferredRebuild) {
  G.enableProvenance();
  G.setRebuildMode(RebuildMode::Deferred);
  ClassId X = v("x");
  ClassId Y = v("y");
  ClassId FX = app(Builtin::Neg64, {X});
  ClassId FY = app(Builtin::Neg64, {Y});
  G.assertEqual(X, Y);
  G.rebuild();
  ASSERT_TRUE(G.sameClass(FX, FY));
  // The batched repair must stamp the congruence edge just as the eager
  // path does: the f(x)=f(y) chain replays with a Congruence step.
  std::vector<ProofStep> Chain = G.explain(FX, FY);
  ASSERT_FALSE(Chain.empty());
  bool HasCongruence = false;
  for (const ProofStep &S : Chain)
    HasCongruence |= S.J.TheKind == Justification::Kind::Congruence;
  EXPECT_TRUE(HasCongruence);
}

//===----------------------------------------------------------------------===
// Property test: random merge sequences preserve union-find/congruence
// invariants (canonical classes partition live nodes; congruent nodes
// share a class).
//===----------------------------------------------------------------------===

class EGraphRandomized : public ::testing::TestWithParam<unsigned> {};

TEST_P(EGraphRandomized, InvariantsHold) {
  std::mt19937 Rng(GetParam());
  ir::Context Ctx;
  EGraph G(Ctx);
  std::vector<ClassId> Pool;
  for (int I = 0; I < 6; ++I)
    Pool.push_back(
        G.addNode(Ctx.Ops.makeVariable("v" + std::to_string(I)), {}));
  auto RandomClass = [&]() { return Pool[Rng() % Pool.size()]; };
  for (int Step = 0; Step < 120; ++Step) {
    switch (Rng() % 3) {
    case 0: { // New unary node over a random class.
      Pool.push_back(
          G.addNode(Ctx.Ops.builtin(Builtin::Neg64), {RandomClass()}));
      break;
    }
    case 1: { // New binary node.
      Pool.push_back(G.addNode(Ctx.Ops.builtin(Builtin::Add64),
                               {RandomClass(), RandomClass()}));
      break;
    }
    default: { // Merge two classes.
      G.assertEqual(RandomClass(), RandomClass());
      break;
    }
    }
  }
  ASSERT_FALSE(G.isInconsistent());

  // Invariant 1: classNodes of canonical classes partition live nodes.
  size_t Total = 0;
  for (ClassId C : G.canonicalClasses()) {
    auto Nodes = G.classNodes(C);
    Total += Nodes.size();
    for (ENodeId N : Nodes)
      EXPECT_EQ(G.classOf(N), G.find(C));
  }
  EXPECT_EQ(Total, G.numNodes());

  // Invariant 2: congruence — any two live nodes with the same op and
  // pairwise-equal child classes are in the same class.
  std::vector<ENodeId> Live;
  for (ClassId C : G.canonicalClasses())
    for (ENodeId N : G.classNodes(C))
      Live.push_back(N);
  for (size_t I = 0; I < Live.size(); ++I) {
    for (size_t J = I + 1; J < Live.size(); ++J) {
      const ENode &A = G.node(Live[I]);
      const ENode &B = G.node(Live[J]);
      if (A.Op != B.Op || A.Children.size() != B.Children.size() ||
          A.ConstVal != B.ConstVal)
        continue;
      bool SameKids = true;
      for (size_t K = 0; K < A.Children.size(); ++K)
        SameKids &= G.find(A.Children[K]) == G.find(B.Children[K]);
      if (SameKids) {
        EXPECT_EQ(G.classOf(Live[I]), G.classOf(Live[J]))
            << "congruence violated (seed " << GetParam() << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EGraphRandomized,
                         ::testing::Range(0u, 12u));

} // namespace

namespace {

TEST_F(EGraphTest, GraphvizDump) {
  ClassId Mul = app(Builtin::Mul64, {v("reg6"), c(4)});
  G.assertEqual(Mul, app(Builtin::Shl64, {v("reg6"), c(2)}));
  std::string Dot = toGraphviz(G);
  EXPECT_NE(Dot.find("digraph egraph"), std::string::npos);
  EXPECT_NE(Dot.find("mul64"), std::string::npos);
  EXPECT_NE(Dot.find("shl64"), std::string::npos);
  EXPECT_NE(Dot.find("cluster_"), std::string::npos);
  // Both alternatives live in one cluster: they share a class id label.
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

} // namespace
