//===- tests/MatchTests.cpp - axiom parsing, e-matching, saturation -------===//

#include "axioms/BuiltinAxioms.h"
#include "egraph/Analysis.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "sexpr/Parser.h"

#include <gtest/gtest.h>

#include <random>

using namespace denali;
using namespace denali::match;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

Axiom parseOk(ir::Context &Ctx, const std::string &Text) {
  sexpr::ParseResult R = sexpr::parseOne(Text);
  EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->toString() : "");
  std::string Err;
  std::optional<Axiom> A = parseAxiom(Ctx, R.Forms[0], &Err);
  EXPECT_TRUE(A.has_value()) << Err;
  return A ? std::move(*A) : Axiom();
}

void parseFail(ir::Context &Ctx, const std::string &Text,
               const std::string &ExpectInError) {
  sexpr::ParseResult R = sexpr::parseOne(Text);
  ASSERT_TRUE(R.ok());
  std::string Err;
  std::optional<Axiom> A = parseAxiom(Ctx, R.Forms[0], &Err);
  EXPECT_FALSE(A.has_value());
  EXPECT_NE(Err.find(ExpectInError), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===
// Axiom parsing.
//===----------------------------------------------------------------------===

TEST(AxiomParse, Commutativity) {
  ir::Context Ctx;
  Axiom A = parseOk(
      Ctx, R"((\axiom (forall (x y) (eq (\add64 x y) (\add64 y x)))))");
  EXPECT_EQ(A.VarNames.size(), 2u);
  ASSERT_EQ(A.Body.size(), 1u);
  EXPECT_TRUE(A.Body[0].IsEq);
  EXPECT_EQ(A.Triggers.size(), 2u); // Both sides bind all variables.
}

TEST(AxiomParse, ExplicitPats) {
  ir::Context Ctx;
  Axiom A = parseOk(Ctx, R"((\axiom (forall (a b) (pats (\add64 a b))
                              (eq (\add64 a b) (\add64 b a)))))");
  EXPECT_EQ(A.Triggers.size(), 1u);
}

TEST(AxiomParse, IdentityUsesAppSideOnly) {
  ir::Context Ctx;
  Axiom A = parseOk(Ctx, R"((\axiom (forall (x) (eq (\or64 x 0) x))))");
  EXPECT_EQ(A.Triggers.size(), 1u); // The bare-variable side is unusable.
}

TEST(AxiomParse, Clause) {
  ir::Context Ctx;
  Axiom A = parseOk(Ctx,
                    R"((\axiom (forall (a i j x)
                        (pats (\select (\store a i x) j))
                        (or (eq i j)
                            (eq (\select (\store a i x) j) (\select a j))))))");
  EXPECT_EQ(A.Body.size(), 2u);
  EXPECT_EQ(A.Triggers.size(), 1u);
}

TEST(AxiomParse, Distinction) {
  ir::Context Ctx;
  Axiom A = parseOk(
      Ctx, R"((\axiom (forall (x) (pats (\neg64 x)) (neq (\neg64 x) 1))))");
  ASSERT_EQ(A.Body.size(), 1u);
  EXPECT_FALSE(A.Body[0].IsEq);
}

TEST(AxiomParse, Unquantified) {
  ir::Context Ctx;
  Ctx.Ops.makeVariable("reg7");
  Axiom A = parseOk(Ctx, R"((\axiom (eq reg7 0)))");
  EXPECT_TRUE(A.VarNames.empty());
  EXPECT_TRUE(A.Triggers.empty()); // Ground facts need no trigger.
}

TEST(AxiomParse, UnknownOperator) {
  ir::Context Ctx;
  parseFail(Ctx, R"((\axiom (forall (x) (eq (\frobnicate x) x))))",
            "unknown operator");
}

TEST(AxiomParse, ArityMismatch) {
  ir::Context Ctx;
  parseFail(Ctx, R"((\axiom (forall (x) (eq (\add64 x) x))))", "arguments");
}

TEST(AxiomParse, TriggerMustBindAllVars) {
  ir::Context Ctx;
  parseFail(Ctx,
            R"((\axiom (forall (x y) (pats (\neg64 x))
                 (eq (\neg64 x) (\neg64 y)))))",
            "bind every");
}

TEST(AxiomParse, NoUsableTrigger) {
  ir::Context Ctx;
  parseFail(Ctx, R"((\axiom (forall (x y) (eq x y))))", "no usable trigger");
}

TEST(AxiomParse, DeclaredOpInAxiom) {
  ir::Context Ctx;
  Ctx.Ops.declareOp("carry", 2);
  Axiom A = parseOk(Ctx,
                    R"((\axiom (forall (a b) (pats (carry a b))
                        (eq (carry a b) (\cmpult (\add64 a b) a)))))");
  EXPECT_EQ(A.Triggers.size(), 1u);
}

//===----------------------------------------------------------------------===
// Definitional-axiom extraction (drives the reference evaluator).
//===----------------------------------------------------------------------===

TEST(ExtractDefinition, CarryDefinition) {
  ir::Context Ctx;
  Ctx.Ops.declareOp("carry", 2);
  Axiom A = parseOk(Ctx,
                    R"((\axiom (forall (a b) (pats (carry a b))
                        (eq (carry a b) (\cmpult (\add64 a b) a)))))");
  auto Def = extractDefinition(Ctx, A);
  ASSERT_TRUE(Def.has_value());
  EXPECT_EQ(Ctx.Ops.info(Def->first).Name, "carry");
  // Evaluate carry(~0, 1) through the definition: expect 1.
  ir::Definitions Defs;
  Defs[Def->first] = Def->second;
  ir::TermId T = Ctx.Terms.make(
      Def->first, {Ctx.Terms.makeConst(~0ULL), Ctx.Terms.makeConst(1)});
  auto V = ir::evalTerm(Ctx.Terms, T, {}, &Defs);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asInt(), 1u);
}

TEST(ExtractDefinition, RejectsNonDefinitional) {
  ir::Context Ctx;
  // Commutativity of a builtin is not a definition.
  Axiom A = parseOk(
      Ctx, R"((\axiom (forall (x y) (eq (\add64 x y) (\add64 y x)))))");
  EXPECT_FALSE(extractDefinition(Ctx, A).has_value());
  // Repeated variables on the lhs are not definitional.
  Ctx.Ops.declareOp("dup", 2);
  Axiom B = parseOk(Ctx, R"((\axiom (forall (x) (pats (dup x x))
                               (eq (dup x x) x))))");
  EXPECT_FALSE(extractDefinition(Ctx, B).has_value());
}

//===----------------------------------------------------------------------===
// Saturation: the Figure 2 walkthrough and friends.
//===----------------------------------------------------------------------===

class SaturationTest : public ::testing::Test {
protected:
  ir::Context Ctx;
  EGraph G{Ctx};
  const std::vector<Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);

  Matcher makeMatcher() {
    Matcher M(Axioms);
    for (Elaborator &E : standardElaborators())
      M.addElaborator(std::move(E));
    return M;
  }

  ClassId c(uint64_t V) { return G.addConst(V); }
  ClassId v(const std::string &Name) {
    return G.addNode(Ctx.Ops.makeVariable(Name), {});
  }
  ClassId app(Builtin B, std::vector<ClassId> Args) {
    return G.addNode(Ctx.Ops.builtin(B), Args);
  }

  bool classHasOp(ClassId C, Builtin B) {
    for (ENodeId N : G.classNodes(C))
      if (G.node(N).Op == Ctx.Ops.builtin(B))
        return true;
    return false;
  }
};

TEST_F(SaturationTest, Figure2Chain) {
  // Goal: reg6*4 + 1. After saturation the goal class must contain the
  // single-instruction alternative s4addl(reg6, 1), and reg6*4's class must
  // contain the shift alternative reg6 << 2.
  ClassId Mul = app(Builtin::Mul64, {v("reg6"), c(4)});
  ClassId Goal = app(Builtin::Add64, {Mul, c(1)});
  Matcher M = makeMatcher();
  MatchStats Stats = M.saturate(G);
  EXPECT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  EXPECT_TRUE(Stats.Quiesced);
  // 4 = 2**2 was introduced (Figure 2b).
  EXPECT_TRUE(classHasOp(c(4), Builtin::Pow));
  // reg6 << 2 joined the multiply's class (Figure 2c).
  EXPECT_TRUE(classHasOp(Mul, Builtin::Shl64));
  // s4addl joined the goal class (Figure 2d).
  EXPECT_TRUE(classHasOp(Goal, Builtin::S4Addl));
}

TEST_F(SaturationTest, Figure2Soundness) {
  ClassId Mul = app(Builtin::Mul64, {v("reg6"), c(4)});
  ClassId Goal = app(Builtin::Add64, {Mul, c(1)});
  (void)Goal;
  Matcher M = makeMatcher();
  M.saturate(G);
  // Every class value must be consistent under random environments.
  for (uint64_t Seed : {1ULL, 42ULL, 0xdeadULL}) {
    ir::Env E;
    E[Ctx.Ops.makeVariable("reg6")] =
        ir::Value::makeInt(Seed * 0x9e3779b97f4a7c15ULL);
    ClassValuation CV = evaluateClasses(G, E);
    EXPECT_TRUE(CV.sound()) << CV.Violations.front();
  }
}

TEST_F(SaturationTest, AcSumWays) {
  // The paper: the matcher finds more than a hundred ways of computing
  // a + b + c + d + e via commutativity and associativity.
  ClassId Sum = app(
      Builtin::Add64,
      {app(Builtin::Add64,
           {app(Builtin::Add64,
                {app(Builtin::Add64, {v("a"), v("b")}), v("c")}),
            v("d")}),
       v("e")});
  Matcher M = makeMatcher();
  MatchLimits Limits;
  Limits.MaxNodes = 40000;
  M.saturate(G, Limits);
  EXPECT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  uint64_t Ways = countComputations(G, Sum);
  EXPECT_GT(Ways, 100u) << "paper reports >100 ways";
}

TEST_F(SaturationTest, SelectStoreReordering) {
  // Store to p, load from p+8: saturation must discover that the load can
  // be performed against the original memory (reorder freedom).
  ClassId MVar = v("M");
  ClassId P = v("p");
  ClassId X = v("xv");
  ClassId P8 = app(Builtin::Add64, {P, c(8)});
  ClassId StoreT = app(Builtin::Store, {MVar, P, X});
  ClassId LoadAfter = app(Builtin::Select, {StoreT, P8});
  ClassId LoadBefore = app(Builtin::Select, {MVar, P8});
  Matcher M = makeMatcher();
  M.saturate(G);
  EXPECT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  EXPECT_TRUE(G.sameClass(LoadAfter, LoadBefore));
}

TEST_F(SaturationTest, SelectStoreSameAddress) {
  // Load from the stored address: must equal the stored value.
  ClassId MVar = v("M");
  ClassId P = v("p");
  ClassId X = v("xv");
  ClassId StoreT = app(Builtin::Store, {MVar, P, X});
  ClassId Load = app(Builtin::Select, {StoreT, P});
  Matcher M = makeMatcher();
  M.saturate(G);
  EXPECT_TRUE(G.sameClass(Load, X));
}

TEST_F(SaturationTest, ByteswapDiscoversInsblExtbl) {
  // r = storeb(storeb(0, 0, selectb(a,1)), 1, selectb(a,0)) — a 2-byte
  // swap. Saturation must produce or/insbl/extbl decompositions.
  ClassId A = v("a");
  ClassId R0 = app(Builtin::StoreB, {c(0), c(0), app(Builtin::SelectB, {A, c(1)})});
  ClassId R = app(Builtin::StoreB, {R0, c(1), app(Builtin::SelectB, {A, c(0)})});
  Matcher M = makeMatcher();
  MatchStats Stats = M.saturate(G);
  (void)Stats;
  EXPECT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  // The top class gains an or64 alternative (mskbl/insbl combination).
  EXPECT_TRUE(classHasOp(R, Builtin::Or64));
  // selectb(a, i) classes gain extbl alternatives.
  ClassId Sel1 = app(Builtin::SelectB, {A, c(1)});
  EXPECT_TRUE(classHasOp(Sel1, Builtin::Extbl));
  // Soundness under random inputs.
  ir::Env E;
  E[Ctx.Ops.makeVariable("a")] = ir::Value::makeInt(0x1122334455667788ULL);
  ClassValuation CV = evaluateClasses(G, E);
  EXPECT_TRUE(CV.sound()) << (CV.sound() ? "" : CV.Violations.front());
  // And the swap value is right.
  auto It = CV.Values.find(G.find(R));
  ASSERT_NE(It, CV.Values.end());
  EXPECT_EQ(It->second.asInt(), 0x8877ULL); // Bytes of 0x...7788 swapped.
}

TEST_F(SaturationTest, ZapnotFromMask) {
  // and64(x, 0xffff) should gain a zapnot(x, 3) alternative via the
  // byte-mask elaborator.
  ClassId T = app(Builtin::And64, {v("x"), c(0xffff)});
  Matcher M = makeMatcher();
  M.saturate(G);
  EXPECT_TRUE(classHasOp(T, Builtin::Zapnot));
}

TEST_F(SaturationTest, CarryAxiomsFromProgram) {
  // The checksum program's local axioms (Figure 6).
  ir::OpId CarryOp = Ctx.Ops.declareOp("carry", 2);
  ir::OpId AddOp = Ctx.Ops.declareOp("add", 2);
  (void)AddOp;
  const char *Text = R"(
    (\axiom (forall (a b) (pats (carry a b))
      (eq (carry a b) (\cmpult (\add64 a b) a))))
    (\axiom (forall (a b) (pats (carry a b))
      (eq (carry a b) (\cmpult (\add64 a b) b))))
    (\axiom (forall (a b) (pats (add a b))
      (eq (add a b) (\add64 (\add64 a b) (carry a b)))))
  )";
  std::string Err;
  auto ProgAxioms = axioms::parseAxiomsText(Ctx, Text, &Err);
  ASSERT_TRUE(ProgAxioms.has_value()) << Err;
  std::vector<Axiom> All = axioms::loadBuiltinAxioms(Ctx);
  for (Axiom &A : *ProgAxioms)
    All.push_back(std::move(A));
  Matcher M{All};
  for (Elaborator &E : standardElaborators())
    M.addElaborator(std::move(E));

  ClassId Sum = G.addNode(Ctx.Ops.declareOp("add", 2), {v("s"), v("w")});
  M.saturate(G);
  EXPECT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  // add(s, w) must now have a machine-computable alternative:
  // add64(add64(s, w), cmpult(add64(s, w), s)).
  EXPECT_TRUE(classHasOp(Sum, Builtin::Add64));
  ClassId Carry = G.addNode(CarryOp, {v("s"), v("w")});
  EXPECT_TRUE(classHasOp(Carry, Builtin::CmpUlt));
}

TEST_F(SaturationTest, GroundAxiom) {
  // Program-specific ground fact: reg7 = 0 (a \trust-style assumption).
  ClassId R7 = v("reg7");
  ClassId T = app(Builtin::Add64, {v("x"), R7});
  std::string Err;
  auto Ax = axioms::parseAxiomsText(Ctx, R"((\axiom (eq reg7 0)))", &Err);
  ASSERT_TRUE(Ax.has_value()) << Err;
  std::vector<Axiom> All = axioms::loadBuiltinAxioms(Ctx);
  for (Axiom &A : *Ax)
    All.push_back(std::move(A));
  Matcher M{All};
  M.saturate(G);
  // x + reg7 collapses to x by the identity axiom.
  EXPECT_TRUE(G.sameClass(T, v("x")));
}

TEST_F(SaturationTest, QuiescenceOnEmptyGraph) {
  Matcher M = makeMatcher();
  MatchStats Stats = M.saturate(G);
  EXPECT_TRUE(Stats.Quiesced);
  EXPECT_EQ(Stats.InstancesAsserted, 0u);
}

TEST_F(SaturationTest, FuelLimitStopsExplosion) {
  // A 8-operand sum under AC axioms explodes; the node cap must stop it.
  ClassId Sum = v("a0");
  for (int I = 1; I < 8; ++I)
    Sum = app(Builtin::Add64, {Sum, v("a" + std::to_string(I))});
  Matcher M = makeMatcher();
  MatchLimits Limits;
  Limits.MaxNodes = 2000;
  MatchStats Stats = M.saturate(G, Limits);
  EXPECT_FALSE(Stats.Quiesced);
  EXPECT_LE(G.numNodes(), Limits.MaxNodes + 4096); // Rebuild slack.
}

//===----------------------------------------------------------------------===
// Saturation soundness sweep: random small term DAGs, saturate, evaluate
// all classes under several environments, expect zero violations.
//===----------------------------------------------------------------------===

class SaturationSoundness : public ::testing::TestWithParam<unsigned> {};

TEST_P(SaturationSoundness, RandomDags) {
  std::mt19937 Rng(GetParam() * 2654435761u + 1);
  ir::Context Ctx;
  EGraph G(Ctx);
  std::vector<ClassId> Pool;
  for (int I = 0; I < 3; ++I)
    Pool.push_back(
        G.addNode(Ctx.Ops.makeVariable("v" + std::to_string(I)), {}));
  Pool.push_back(G.addConst(Rng() & 0xff));
  Pool.push_back(G.addConst(4));
  const Builtin Ops[] = {Builtin::Add64,  Builtin::Sub64,  Builtin::Mul64,
                         Builtin::And64,  Builtin::Or64,   Builtin::Xor64,
                         Builtin::Shl64,  Builtin::SelectB, Builtin::StoreB,
                         Builtin::CmpUlt, Builtin::Zapnot};
  for (int Step = 0; Step < 10; ++Step) {
    Builtin B = Ops[Rng() % std::size(Ops)];
    int Arity = B == Builtin::StoreB ? 3 : 2;
    std::vector<ClassId> Args;
    for (int I = 0; I < Arity; ++I)
      Args.push_back(Pool[Rng() % Pool.size()]);
    Pool.push_back(G.addNode(Ctx.Ops.builtin(B), Args));
  }
  const std::vector<Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  Matcher M(Axioms);
  for (Elaborator &E : standardElaborators())
    M.addElaborator(std::move(E));
  MatchLimits Limits;
  Limits.MaxNodes = 8000;
  M.saturate(G, Limits);
  ASSERT_FALSE(G.isInconsistent()) << G.inconsistencyMessage();
  for (int Trial = 0; Trial < 3; ++Trial) {
    ir::Env E;
    for (int I = 0; I < 3; ++I)
      E[Ctx.Ops.makeVariable("v" + std::to_string(I))] =
          ir::Value::makeInt(Rng() * 0x9e3779b97f4a7c15ULL + Rng());
    ClassValuation CV = evaluateClasses(G, E);
    EXPECT_TRUE(CV.sound())
        << "seed " << GetParam() << ": " << CV.Violations.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaturationSoundness, ::testing::Range(0u, 15u));

} // namespace
