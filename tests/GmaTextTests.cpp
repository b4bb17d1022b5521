//===- tests/GmaTextTests.cpp - The GMA request reader --------------------===//
//
// verify::parseGma reads a request's tokens straight into interned terms.
// Its language and its error messages are pinned here, as the tree-walking
// reader it replaced produced them:
//   * each malformed seed under tests/corpus/gma-malformed/ keeps its
//     exact error text;
//   * when a text has several faults, the one reported is a tree walk's:
//     syntax first, then the first failing check in pre-order, where a
//     form's own checks (head, size, arity) beat its operands' errors;
//   * accepted texts print back and re-read to the same terms;
//   * parentheses nest at most sexpr::MaxNesting deep.
//
//===----------------------------------------------------------------------===//

#include "MalformedGmaSeeds.h"

#include "ir/Term.h"
#include "sexpr/Parser.h"
#include "verify/GmaText.h"

#include <gtest/gtest.h>

using namespace denali;

namespace {

/// parseGma's error on \p Text, or "ok" when it parses.
std::string errorOf(ir::Context &Ctx, const std::string &Text) {
  std::string Err;
  return verify::parseGma(Ctx, Text, &Err) ? "ok" : Err;
}

TEST(GmaText, MalformedSeedsKeepTheirErrorText) {
  size_t Files = 0;
  for (const auto &E :
       std::filesystem::directory_iterator(malformedGmaDir()))
    Files += E.is_regular_file();
  EXPECT_EQ(Files, std::size(MalformedGmaSeeds))
      << "every malformed seed needs its error text in MalformedGmaSeeds.h";
  ir::Context Ctx;
  for (const auto &[File, Want] : MalformedGmaSeeds) {
    SCOPED_TRACE(File);
    EXPECT_EQ(errorOf(Ctx, readMalformedGmaSeed(File)), Want);
  }
}

TEST(GmaText, ReportsTheErrorATreeWalkReportsFirst) {
  const std::pair<const char *, const char *> Cases[] = {
      // Syntax first, wherever it is, then the form count.
      {"", "1:1: expected exactly one form, found 0"},
      {"   ; only a comment\n", "1:1: expected exactly one form, found 0"},
      {")", "1:1: unexpected ')'"},
      {"(gma g (assign r (frob a)) (assign",
       "1:35: unterminated list (missing ')')"},
      {"(gma g (assign r (frob a))) )", "1:29: unexpected ')'"},
      {"(gma g (assign r (frob a))) (x",
       "1:31: unterminated list (missing ')')"},
      {"(gma g (assign r (frob a))) x",
       "1:1: expected exactly one form, found 2"},
      {"(gma g\n  (assign r a)\n  )\n)", "4:1: unexpected ')'"},
      // The top form.
      {"gma", "expected (gma <name> <clause>...)"},
      {"(gma 5 (assign r a))", "expected (gma <name> <clause>...)"},
      {"(gma (x) (assign r a))", "expected (gma <name> <clause>...)"},
      {"()", "expected (gma <name> <clause>...)"},
      {"(foo g (assign r a))", "expected (gma <name> <clause>...)"},
      {"(gma g (guard (cmpult a b)))", "gma has no assign clause"},
      // A clause's shape before its terms; clauses in order.
      {"(gma g (assign r (frob a) extra))",
       "unrecognized clause: (assign r (frob a) extra)"},
      {"(gma g (assign 5 a))", "unrecognized clause: (assign 5 a)"},
      {"(gma g (assign r 0x10 7))", "unrecognized clause: (assign r 16 7)"},
      {"(gma g foo)", "unrecognized clause: foo"},
      {"(gma g 0x1f)", "unrecognized clause: 31"},
      {"(gma g ())", "unrecognized clause: ()"},
      {"(gma g (assign r))", "unrecognized clause: (assign r)"},
      {"(gma g (guard a b))", "unrecognized clause: (guard a b)"},
      {"(gma g (miss))", "unrecognized clause: (miss)"},
      {"(gma g (assign r a) (frob x))", "unrecognized clause: (frob x)"},
      {"(gma g (assign r (frob a)) (assign s (frab b)))",
       "unknown operator 'frob'"},
      {"(gma g (miss (frob a)))", "unknown operator 'frob'"},
      // assume: shape, then eq/neq, then each term.
      {"(gma g (assume lt a b))", "assume clause must be eq or neq"},
      {"(gma g (assume lt (frob a) b))", "assume clause must be eq or neq"},
      {"(gma g (assume eq (frob a) (frab b)))", "unknown operator 'frob'"},
      {"(gma g (assume eq a (frab b)))", "unknown operator 'frab'"},
      {"(gma g (assume eq a b c))", "unrecognized clause: (assume eq a b c)"},
      {"(gma g (assume (eq) a b))", "unrecognized clause: (assume (eq) a b)"},
      // A term's arity before its operands' errors.
      {"(gma g (assign r (add64 (frob a) b c)))",
       "operator 'add64' expects 2 argument(s), got 3"},
      {"(gma g (assign r (add64 (frob a) b)))", "unknown operator 'frob'"},
      {"(gma g (assign r add64))", "operator 'add64' used without arguments"},
      {"(gma g (assign r +))", "operator '+' used without arguments"},
      {"(gma g (assign r (+ a)))",
       "operator 'add64' expects 2 argument(s), got 1"},
      {"(gma g (assign r (5 a)))", "term list must start with an operator name"},
      {"(gma g (assign r ()))", "term list must start with an operator name"},
      {"(gma g (assign r ((add64 a b) c)))",
       "term list must start with an operator name"},
      {"(gma g (assign r (a b)))", "unknown operator 'a'"},
  };
  ir::Context Ctx;
  for (const auto &[Text, Want] : Cases)
    EXPECT_EQ(errorOf(Ctx, Text), Want) << Text;
}

TEST(GmaText, AcceptedTextsPrintAndRereadToTheSameTerms) {
  ir::Context Ctx;
  const std::pair<const char *, const char *> Cases[] = {
      {"(gma g ; c\n (assign r (add64 a (shl64 b 3)))) ; trailing\n",
       "(gma g\n  (assign r (add64 a (shl64 b 3))))"},
      {"(gma g (assign r (add64 a -0x8000000000000000)))",
       "(gma g\n  (assign r (add64 a 9223372036854775808)))"},
      {"(gma g (assign r a) (guard (cmpult a b)) (miss (add64 p 8)) "
       "(assume neq a b) (assign M (store M p a)))",
       "(gma g\n  (assign r a)\n  (assign M (store M p a))\n"
       "  (guard (cmpult a b))\n  (miss (add64 p 8))\n  (assume neq a b))"},
  };
  for (const auto &[Text, Printed] : Cases) {
    std::string Err;
    std::optional<gma::GMA> G = verify::parseGma(Ctx, Text, &Err);
    ASSERT_TRUE(G) << Err;
    EXPECT_EQ(verify::printGma(Ctx, *G), Printed);
    std::optional<gma::GMA> Again = verify::parseGma(Ctx, Printed, &Err);
    ASSERT_TRUE(Again) << Err;
    EXPECT_EQ(Again->NewVals, G->NewVals);
    EXPECT_EQ(Again->Targets, G->Targets);
  }
}

TEST(GmaText, TheConstantOperatorIsNotAVariableName) {
  // '#const' names the builtin constant operator; read as a bare symbol it
  // used to reach OpTable::makeVariable, which aborts on a non-variable
  // name. It is an error now; applied, (#const) is still the constant 0.
  ir::Context Ctx;
  EXPECT_EQ(errorOf(Ctx, "(gma g (assign r #const))"),
            "'#const' names an operator, not a variable");
  std::string Err;
  std::optional<gma::GMA> G =
      verify::parseGma(Ctx, "(gma g (assign r (#const)))", &Err);
  ASSERT_TRUE(G) << Err;
  EXPECT_EQ(G->NewVals[0], Ctx.Terms.makeConst(0));
}

TEST(GmaText, PrintKeepsANulByteInAName) {
  // A symbol holds any byte but a delimiter; printGma must not cut a
  // target or variable name at a NUL.
  using namespace std::string_literals;
  ir::Context Ctx;
  const std::string Text = "(gma g (assign r\0x (add64 a\0b 1)))"s;
  std::string Err;
  std::optional<gma::GMA> G = verify::parseGma(Ctx, Text, &Err);
  ASSERT_TRUE(G) << Err;
  EXPECT_EQ(G->Targets[0], "r\0x"s);
  const std::string Printed = verify::printGma(Ctx, *G);
  EXPECT_EQ(Printed, "(gma g\n  (assign r\0x (add64 a\0b 1)))"s);
  std::optional<gma::GMA> Again = verify::parseGma(Ctx, Printed, &Err);
  ASSERT_TRUE(Again) << Err;
  EXPECT_EQ(Again->Targets, G->Targets);
  EXPECT_EQ(Again->NewVals, G->NewVals);
}

TEST(GmaText, ParseTermKeepsItsErrors) {
  ir::Context Ctx;
  std::string Err;
  EXPECT_FALSE(verify::parseTerm(Ctx, "(add64 a b) c", &Err));
  EXPECT_EQ(Err, "1:1: expected exactly one form, found 2");
  EXPECT_FALSE(verify::parseTerm(Ctx, "(add64 a (frob b) c)", &Err));
  EXPECT_EQ(Err, "operator 'add64' expects 2 argument(s), got 3");
  EXPECT_FALSE(verify::parseTerm(Ctx, "(add64 a", &Err));
  EXPECT_EQ(Err, "1:9: unterminated list (missing ')')");
  std::optional<ir::TermId> T = verify::parseTerm(Ctx, "(xor64 a 0x10)", &Err);
  ASSERT_TRUE(T) << Err;
  EXPECT_EQ(verify::printTerm(Ctx, *T), "(xor64 a 16)");
}

/// A GMA whose parentheses nest \p Depth deep, the gma and assign forms
/// included: (gma deep (assign r (not64 (not64 ... a)))).
std::string nestedGma(unsigned Depth) {
  std::string Text = "(gma deep (assign r ";
  for (unsigned I = 2; I < Depth; ++I)
    Text += "(not64 ";
  Text += "a";
  Text.append(Depth, ')');
  return Text;
}

TEST(GmaText, NestingIsBoundedByTheSharedLimit) {
  // Terms nest on the reader's own stack; the limit is the Lexer's, so
  // the reader stops at the first parenthesis past it, before reading or
  // interning anything deeper, and names its line and column. Each
  // "(not64 " is 7 characters and the first one is at column 21.
  static_assert(sexpr::MaxNesting == 1000);
  ir::Context Ctx;
  EXPECT_EQ(errorOf(Ctx, nestedGma(1000)), "ok");
  const std::string TooDeep = "1:7007: parentheses nested deeper than 1000";
  EXPECT_EQ(errorOf(Ctx, nestedGma(1001)), TooDeep);
  // Only the text up to that parenthesis is read: a much deeper one, cut
  // off unterminated, gets the same error.
  EXPECT_EQ(errorOf(Ctx, nestedGma(100000).substr(0, 500000)), TooDeep);
  // A syntax error before it still comes first.
  EXPECT_EQ(errorOf(Ctx, ") " + nestedGma(1001)), "1:1: unexpected ')'");
  // On a later line, the position is that line's.
  EXPECT_EQ(errorOf(Ctx, "(gma deep\n (assign r " +
                             nestedGma(1001).substr(20)),
            "2:6998: parentheses nested deeper than 1000");
}

} // namespace
