//===- tests/SurfaceTests.cpp - envisioned-syntax parser tests ------------===//

#include "driver/Superoptimizer.h"
#include "gma/GMA.h"
#include "lang/Surface.h"
#include "sexpr/Parser.h"
#include "support/StringExtras.h"

#include <gtest/gtest.h>

using namespace denali;
using namespace denali::lang;

namespace {

Module parseOk(const std::string &Text) {
  std::string Err;
  std::optional<Module> M = parseSurfaceModule(Text, &Err);
  EXPECT_TRUE(M.has_value()) << Err;
  return M ? std::move(*M) : Module();
}

void parseFail(const std::string &Text, const std::string &ExpectInError) {
  std::string Err;
  std::optional<Module> M = parseSurfaceModule(Text, &Err);
  EXPECT_FALSE(M.has_value()) << "unexpectedly parsed";
  EXPECT_NE(Err.find(ExpectInError), std::string::npos) << Err;
}

/// Renders the \res value of the first GMA of the only proc.
std::string resultTerm(const std::string &Text) {
  std::string Err;
  std::optional<Module> M = parseSurfaceModule(Text, &Err);
  EXPECT_TRUE(M.has_value()) << Err;
  if (!M)
    return "";
  ir::Context Ctx;
  for (const OpDecl &D : M->OpDecls)
    Ctx.Ops.declareOp(D.Name, static_cast<int>(D.Arity));
  auto Gmas = gma::translateProc(Ctx, M->Procs.at(0), &Err);
  EXPECT_TRUE(Gmas.has_value()) << Err;
  if (!Gmas)
    return "";
  for (const gma::GMA &G : *Gmas)
    for (size_t I = 0; I < G.Targets.size(); ++I)
      if (G.Targets[I] == "\\res")
        return Ctx.Terms.toString(G.NewVals[I]);
  return "(no \\res)";
}

//===----------------------------------------------------------------------===
// Figure 3 verbatim.
//===----------------------------------------------------------------------===

TEST(Surface, Figure3Byteswap4) {
  Module M = parseOk(R"(
\proc byteswap4 : [ a : int ] -> int =
\var r : int \in
r := 0 ;
r<0> := a<3> ;
r<1> := a<2> ;
r<2> := a<1> ;
r<3> := a<0> ;
\res := r
\end
)");
  ASSERT_EQ(M.Procs.size(), 1u);
  EXPECT_EQ(M.Procs[0].Name, "byteswap4");
  ASSERT_EQ(M.Procs[0].Params.size(), 1u);
}

TEST(Surface, Figure3CompilesToFiveCycles) {
  std::string Err;
  std::optional<Module> M = parseSurfaceModule(R"(
\proc byteswap4 : [ a : int ] -> int =
\var r : int \in
r := 0 ;
r<0> := a<3> ;
r<1> := a<2> ;
r<2> := a<1> ;
r<3> := a<0> ;
\res := r
\end
)", &Err);
  ASSERT_TRUE(M.has_value()) << Err;
  driver::Superoptimizer Opt;
  Opt.options().Search.MaxCycles = 8;
  auto Gmas = gma::translateProc(Opt.context(), M->Procs[0], &Err);
  ASSERT_TRUE(Gmas.has_value()) << Err;
  ASSERT_EQ(Gmas->size(), 1u);
  driver::GmaResult R = Opt.compileGMA((*Gmas)[0]);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Search.Cycles, 5u); // Same as the prototype syntax (E3).
  EXPECT_EQ(Opt.verify(R), std::nullopt);
}

//===----------------------------------------------------------------------===
// Expressions.
//===----------------------------------------------------------------------===

TEST(Surface, Precedence) {
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ; b : long ] -> long =
\res := a + b * 4
\end
)"), "(add64 a (mul64 b 4))");
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ; b : long ] -> long =
\res := (a + b) * 4
\end
)"), "(mul64 (add64 a b) 4)");
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ; b : long ] -> long =
\res := a | b & 255
\end
)"), "(or64 a (and64 b 255))");
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ] -> long =
\res := a << 2 + 1
\end
)"), "(shl64 a (add64 2 1))");
}

TEST(Surface, UnaryOperators) {
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ] -> long =
\res := -a + ~a
\end
)"), "(add64 (neg64 a) (not64 a))");
}

TEST(Surface, Comparisons) {
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ; b : long ] -> long =
\res := a < b
\end
)"), "(cmplt a b)");
  // '>' swaps operands; '!=' builds the double-cmpeq form.
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ; b : long ] -> long =
\res := a > b
\end
)"), "(cmplt b a)");
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ; b : long ] -> long =
\res := a != b
\end
)"), "(cmpeq (cmpeq a b) 0)");
}

TEST(Surface, ByteSelectVsComparison) {
  // a<3> is byte selection; a < 3 + b is a comparison.
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ] -> long =
\res := a<3>
\end
)"), "(selectb a 3)");
  EXPECT_EQ(resultTerm(R"(
\proc f : [ a : long ; b : long ] -> long =
\res := a < 3 + b
\end
)"), "(cmplt a (add64 3 b))");
}

TEST(Surface, DerefAndMiss) {
  EXPECT_EQ(resultTerm(R"(
\proc f : [ p : long* ] -> long =
\res := *p + *(p + 8)
\end
)"), "(add64 (select M p) (select M (add64 p 8)))");
  // Miss annotation is attached (checked through the GMA's MissAddrs).
  std::string Err;
  auto M = parseSurfaceModule(R"(
\proc f : [ p : long* ] -> long =
\res := *(p + 16) \miss
\end
)", &Err);
  ASSERT_TRUE(M.has_value()) << Err;
  ir::Context Ctx;
  auto Gmas = gma::translateProc(Ctx, M->Procs[0], &Err);
  ASSERT_TRUE(Gmas.has_value()) << Err;
  ASSERT_EQ((*Gmas)[0].MissAddrs.size(), 1u);
}

TEST(Surface, CallsAndBuiltins) {
  EXPECT_EQ(resultTerm(R"(
\op add : [ long, long ] -> long ;
\proc f : [ a : long ; b : long ] -> long =
\res := add(a, \extwl(b, 0))
\end
)"), "(add a (extwl b 0))");
}

TEST(Surface, CastBothOrders) {
  EXPECT_EQ(resultTerm(R"(
\proc f : [ s : long ] -> short =
\res := \cast(s, short)
\end
)"), "(zext16 s)");
  EXPECT_EQ(resultTerm(R"(
\proc f : [ s : long ] -> short =
\res := \cast(short, s)
\end
)"), "(zext16 s)");
}

TEST(Surface, Ite) {
  EXPECT_EQ(resultTerm(R"(
\proc max : [ a : long ; b : long ] -> long =
\res := \ite(a < b, b, a)
\end
)"), "(cmovne (cmplt a b) b a)");
}

//===----------------------------------------------------------------------===
// Statements.
//===----------------------------------------------------------------------===

TEST(Surface, MultiAssignSimultaneous) {
  std::string Err;
  auto M = parseSurfaceModule(R"(
\proc swap : [ a : long ; b : long ] -> long =
a, b := b, a ;
\res := a
\end
)", &Err);
  ASSERT_TRUE(M.has_value()) << Err;
  ir::Context Ctx;
  auto Gmas = gma::translateProc(Ctx, M->Procs[0], &Err);
  ASSERT_TRUE(Gmas.has_value()) << Err;
  for (size_t I = 0; I < (*Gmas)[0].Targets.size(); ++I)
    if ((*Gmas)[0].Targets[I] == "\\res") {
      EXPECT_EQ(Ctx.Terms.toString((*Gmas)[0].NewVals[I]), "b");
    }
}

TEST(Surface, StoreTarget) {
  std::string Err;
  auto M = parseSurfaceModule(R"(
\proc f : [ p : long* ; q : long* ] -> long =
*p := *q
\end
)", &Err);
  ASSERT_TRUE(M.has_value()) << Err;
  ir::Context Ctx;
  auto Gmas = gma::translateProc(Ctx, M->Procs[0], &Err);
  ASSERT_TRUE(Gmas.has_value()) << Err;
  bool SawMem = false;
  for (size_t I = 0; I < (*Gmas)[0].Targets.size(); ++I)
    if ((*Gmas)[0].Targets[I] == "M") {
      SawMem = true;
      EXPECT_EQ(Ctx.Terms.toString((*Gmas)[0].NewVals[I]),
                "(store M p (select M q))");
    }
  EXPECT_TRUE(SawMem);
}

TEST(Surface, DoLoopFigure5) {
  std::string Err;
  auto M = parseSurfaceModule(R"(
\op add : [ long, long ] -> long ;
\proc checksum : [ ptr, ptrend : long* ] -> short =
\var sum : long := 0 \in
\do ptr < ptrend ->
    sum := add(sum, *ptr) ; ptr := ptr + 8
\od ;
\res := \cast(sum, short)
\end
)", &Err);
  ASSERT_TRUE(M.has_value()) << Err;
  ir::Context Ctx;
  Ctx.Ops.declareOp("add", 2);
  auto Gmas = gma::translateProc(Ctx, M->Procs[0], &Err);
  ASSERT_TRUE(Gmas.has_value()) << Err;
  ASSERT_EQ(Gmas->size(), 3u); // init, loop body, exit.
  EXPECT_TRUE((*Gmas)[1].Guard.has_value());
}

TEST(Surface, UnrollLoop) {
  std::string Err;
  auto M = parseSurfaceModule(R"(
\proc f : [ p : long* ; r : long* ] -> long =
\do \unroll 2 p < r -> p := p + 8 \od
\end
)", &Err);
  ASSERT_TRUE(M.has_value()) << Err;
  ir::Context Ctx;
  auto Gmas = gma::translateProc(Ctx, M->Procs[0], &Err);
  ASSERT_TRUE(Gmas.has_value()) << Err;
  for (size_t I = 0; I < (*Gmas)[0].Targets.size(); ++I)
    if ((*Gmas)[0].Targets[I] == "p") {
      EXPECT_EQ(Ctx.Terms.toString((*Gmas)[0].NewVals[I]),
                "(add64 (add64 p 8) 8)");
    }
}

TEST(Surface, AxiomForall) {
  Module M = parseOk(R"(
\op carry : [ long, long ] -> long ;
\axiom \forall [ a, b ] carry(a, b) = \cmpult(a + b, a) ;
)");
  ASSERT_EQ(M.Axioms.size(), 1u);
  // Builtin references keep their backslash; the axiom loader strips it.
  EXPECT_EQ(M.Axioms[0].toString(),
            "(\\axiom (forall (a b) (eq (carry a b) "
            "(\\cmpult (add64 a b) a))))");
}

TEST(Surface, GroundAxiom) {
  Module M = parseOk(R"(
\axiom reg7 = 0 ;
)");
  ASSERT_EQ(M.Axioms.size(), 1u);
  EXPECT_EQ(M.Axioms[0].toString(), "(\\axiom (eq reg7 0))");
}

TEST(Surface, Comments) {
  Module M = parseOk(R"(
// leading comment
\proc f : [ a : long ] -> long = // trailing
\res := a // another
\end
)");
  EXPECT_EQ(M.Procs.size(), 1u);
}

TEST(Surface, ParseAnyDispatch) {
  std::string Err;
  // Prototype syntax: starts with '('.
  auto A = parseAnyModule(
      R"((\procdecl f ((x long)) long (:= (\res x))))", &Err);
  ASSERT_TRUE(A.has_value()) << Err;
  EXPECT_EQ(A->Procs.size(), 1u);
  // Surface syntax.
  auto B = parseAnyModule("\\proc f : [ x : long ] -> long = \\res := x \\end",
                          &Err);
  ASSERT_TRUE(B.has_value()) << Err;
  EXPECT_EQ(B->Procs.size(), 1u);
}

TEST(Surface, Errors) {
  parseFail("\\proc : [] -> long = \\end", "identifier");
  parseFail("\\proc f [ x : long ] -> long = \\res := x \\end",
            "expected ':'");
  parseFail("\\proc f : [ x : wibble ] -> long = \\res := x \\end",
            "type name");
  parseFail("\\proc f : [ x : long ] -> long = \\res := \\end",
            "builtin reference");
  parseFail("\\proc f : [ x : long ] -> long = x, \\res := x \\end",
            "targets but");
  parseFail("\\proc f : [ x : long ] -> long = \\res := x", "'\\end'");
  parseFail("\\op f : long -> long ;", "'['");
  parseFail("\\axiom \\forall [ a ] a ;", "'='");
  parseFail(R"(
\proc f : [ x : long ] -> long =
\var r : long := 0 \in
r<0>, r<1> := x<1>, x<0> ;
\res := r
\end
)", "two byte-writes");
  parseFail("wibble", "expected \\op");
}

TEST(Surface, ExpressionNestingIsBoundedLikeTheSExpressionReader) {
  // Parentheses and unary operators both nest by recursion. At
  // sexpr::MaxNesting levels the expression reads; one more is an error at
  // the opening token that goes too deep. "\res := " is 8 columns wide.
  const unsigned Max = sexpr::MaxNesting;
  auto proc = [](const std::string &Expr) {
    return "\\proc deep : [ a : long ] -> long =\n\\res := " + Expr +
           "\n\\end\n";
  };
  auto parens = [](unsigned N) {
    return std::string(N, '(') + "a" + std::string(N, ')');
  };
  auto negations = [](unsigned N) { return std::string(N, '-') + "a"; };
  auto calls = [](unsigned N) {
    std::string S;
    for (unsigned I = 0; I < N; ++I)
      S += "\\not64(";
    return S + "a" + std::string(N, ')');
  };
  EXPECT_EQ(resultTerm(proc(parens(Max))), "a");
  std::string Neg = resultTerm(proc(negations(Max)));
  EXPECT_EQ(Neg.size(), 7 * Max + 1 + Max); // "(neg64 " ... "a" ... ")"
  EXPECT_EQ(Neg.compare(0, 14, "(neg64 (neg64 "), 0) << Neg.substr(0, 40);
  parseOk(proc(calls(Max)));
  for (unsigned Extra : {1u, 60000u}) {
    SCOPED_TRACE(Extra);
    std::string Err;
    EXPECT_FALSE(parseSurfaceModule(proc(parens(Max + Extra)), &Err));
    EXPECT_EQ(Err, strFormat("2:%u: expression nested deeper than %u (at "
                             "'(')",
                             9 + Max, Max));
    EXPECT_FALSE(parseSurfaceModule(proc(negations(Max + Extra)), &Err));
    EXPECT_EQ(Err, strFormat("2:%u: expression nested deeper than %u (at "
                             "'-')",
                             9 + Max, Max));
    // "\not64(" is 7 columns wide; the error is at its parenthesis.
    EXPECT_FALSE(parseSurfaceModule(proc(calls(Max + Extra)), &Err));
    EXPECT_EQ(Err, strFormat("2:%u: expression nested deeper than %u (at "
                             "'(')",
                             9 + 7 * Max + 6, Max));
  }
}

TEST(Surface, StatementNestingIsBoundedLikeExpressions) {
  // \var, \do and \if each parse their body one level deeper, one opener a
  // line from line 2. At sexpr::MaxNesting levels the procedure reads; one
  // more is an error at the opener that goes too deep.
  const unsigned Max = sexpr::MaxNesting;
  auto proc = [](unsigned N, const std::string &Open,
                 const std::string &Close) {
    std::string S = "\\proc deep : [ a : long ] -> long =\n";
    for (unsigned I = 0; I < N; ++I)
      S += Open + "\n";
    S += "\\res := a\n";
    for (unsigned I = 0; I < N; ++I)
      S += Close;
    return S + "\\end\n";
  };
  const struct {
    const char *Open, *Close, *Keyword;
  } Forms[] = {{"\\var v : long \\in", "", "\\var"},
               {"\\do a < 1 ->", "\\od\n", "\\do"},
               {"\\if a < 1 ->", "\\fi\n", "\\if"}};
  for (const auto &F : Forms) {
    SCOPED_TRACE(F.Keyword);
    parseOk(proc(Max, F.Open, F.Close));
    std::string Err;
    EXPECT_FALSE(parseSurfaceModule(proc(Max + 1, F.Open, F.Close), &Err));
    EXPECT_EQ(Err, strFormat("%u:1: statement nested deeper than %u (at "
                             "'%s')",
                             Max + 2, Max, F.Keyword));
  }
}

TEST(Surface, TwoByteSwapEndToEnd) {
  // The surface syntax and prototype syntax produce identical results.
  const char *Src = R"(
\proc byteswap2 : [ a : long ] -> long =
\var r : long := 0 \in
r<0> := a<1> ;
r<1> := a<0> ;
\res := r
\end
)";
  std::string Err;
  auto M = parseSurfaceModule(Src, &Err);
  ASSERT_TRUE(M.has_value()) << Err;
  driver::Superoptimizer Opt;
  auto Gmas = gma::translateProc(Opt.context(), M->Procs[0], &Err);
  ASSERT_TRUE(Gmas.has_value()) << Err;
  driver::GmaResult R = Opt.compileGMA((*Gmas)[0]);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_LE(R.Search.Cycles, 4u);
  EXPECT_EQ(Opt.verify(R), std::nullopt);
}

} // namespace
