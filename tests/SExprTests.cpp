//===- tests/SExprTests.cpp - S-expression reader unit tests --------------===//

#include "sexpr/Parser.h"
#include "support/StringExtras.h"

#include <gtest/gtest.h>

using namespace denali;
using namespace denali::sexpr;

TEST(SExprParser, Symbol) {
  ParseResult R = parseOne("foo");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Forms[0].isSymbol("foo"));
}

TEST(SExprParser, Integer) {
  ParseResult R = parseOne("42");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Forms[0].isInteger());
  EXPECT_EQ(R.Forms[0].integer(), 42);
}

TEST(SExprParser, NegativeInteger) {
  ParseResult R = parseOne("-17");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Forms[0].integer(), -17);
}

TEST(SExprParser, HexInteger) {
  ParseResult R = parseOne("0xff");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Forms[0].integer(), 255);
}

TEST(SExprParser, FlatList) {
  ParseResult R = parseOne("(a b 3)");
  ASSERT_TRUE(R.ok());
  const SExpr &E = R.Forms[0];
  ASSERT_TRUE(E.isList());
  ASSERT_EQ(E.size(), 3u);
  EXPECT_TRUE(E[0].isSymbol("a"));
  EXPECT_TRUE(E[1].isSymbol("b"));
  EXPECT_EQ(E[2].integer(), 3);
}

TEST(SExprParser, Nested) {
  ParseResult R = parseOne("(add (mul x 2) (shl y 1))");
  ASSERT_TRUE(R.ok());
  const SExpr &E = R.Forms[0];
  EXPECT_TRUE(E.isForm("add"));
  EXPECT_TRUE(E[1].isForm("mul"));
  EXPECT_TRUE(E[2].isForm("shl"));
}

TEST(SExprParser, BackslashKeywords) {
  ParseResult R = parseOne(R"((\axiom (forall (a b) (eq (add a b) (add b a)))))");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Forms[0].isForm("\\axiom"));
}

TEST(SExprParser, OperatorSymbols) {
  ParseResult R = parseOne("(:= (sum (+ sum 8)))");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Forms[0].isForm(":="));
  EXPECT_TRUE(R.Forms[0][1][1].isForm("+"));
}

TEST(SExprParser, Comments) {
  ParseResult R = parse("; leading comment\n(a b) ; trailing\n(c)");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Forms.size(), 2u);
  EXPECT_TRUE(R.Forms[0].isForm("a"));
  EXPECT_TRUE(R.Forms[1].isForm("c"));
}

TEST(SExprParser, MultipleTopLevelForms) {
  ParseResult R = parse("(a) (b) 12");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Forms.size(), 3u);
}

TEST(SExprParser, EmptyInput) {
  ParseResult R = parse("  ; nothing here\n");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Forms.empty());
}

TEST(SExprParser, UnterminatedList) {
  ParseResult R = parse("(a (b c)");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("unterminated"), std::string::npos);
}

TEST(SExprParser, StrayClose) {
  ParseResult R = parse(")");
  ASSERT_FALSE(R.ok());
}

TEST(SExprParser, ErrorPosition) {
  ParseResult R = parse("(a\n(b");
  ASSERT_FALSE(R.ok());
  EXPECT_GE(R.Error->Line, 2u);
}

TEST(SExprParser, ParseOneRejectsMultiple) {
  ParseResult R = parseOne("(a) (b)");
  ASSERT_FALSE(R.ok());
}

TEST(SExprParser, RoundTrip) {
  const std::string Text = "(\\proc f (x) (:= (r (+ x 1))))";
  ParseResult R = parseOne(Text);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Forms[0].toString(), Text);
}

TEST(SExprParser, DeepNesting) {
  std::string Text;
  for (int I = 0; I < 200; ++I)
    Text += "(f ";
  Text += "x";
  for (int I = 0; I < 200; ++I)
    Text += ")";
  ParseResult R = parseOne(Text);
  ASSERT_TRUE(R.ok());
}

TEST(SExprParser, NestingStopsPastTheLimit) {
  std::string Text;
  for (unsigned I = 0; I < MaxNesting; ++I)
    Text += "(f ";
  Text += "x";
  Text.append(MaxNesting, ')');
  EXPECT_TRUE(parseOne(Text).ok());
  // The first parenthesis past the limit is the error, however deep the
  // nesting goes on.
  ParseResult R = parse(std::string(60000, '(') + Text);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->toString(),
            strFormat("1:%u: parentheses nested deeper than %u",
                      MaxNesting + 1, MaxNesting));
}
