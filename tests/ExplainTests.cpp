//===- tests/ExplainTests.cpp - provenance & explanation layer tests ------===//
//
// Golden tests for the explain layer on the paper's byteswap4 challenge:
// every emitted instruction must carry a derivation chain (axiom ids +
// substitutions) or be directly present in the specification, and the K-1
// refutation must name the binding clause families. Plus the e-graph
// inspector dumps.
//
//===----------------------------------------------------------------------===//

#include "explain/Explain.h"

#include "driver/Superoptimizer.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace denali;
namespace json = denali::support::json;

namespace {

/// The Figure 3 byteswap program for n bytes (same shape as DriverTests).
std::string byteswapSource(unsigned N) {
  std::string Body = "(\\var (r long 0)\n  (\\semi\n";
  for (unsigned I = 0; I < N; ++I)
    Body += "    (:= (r (\\storeb r " + std::to_string(I) +
            " (\\selectb a " + std::to_string(N - 1 - I) + "))))\n";
  Body += "    (:= (\\res r))))";
  return "(\\procdecl byteswap" + std::to_string(N) +
         " ((a long)) long\n  " + Body + ")";
}

TEST(Explain, GoldenByteswap4) {
  driver::Options Opts;
  Opts.Explain = true;
  Opts.WhyUnsat = true;
  Opts.Search.MaxCycles = 8;
  driver::Superoptimizer Opt(Opts);
  driver::CompileResult R = Opt.compileSource(byteswapSource(4));
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Gmas.size(), 1u);
  const driver::GmaResult &G = R.Gmas[0];
  ASSERT_TRUE(G.ok()) << G.Error;
  EXPECT_EQ(G.Search.Cycles, 5u);

  // The JSON explanation parses and covers every emitted instruction.
  std::string Err;
  auto Doc = json::parse(G.ExplanationJson, &Err);
  ASSERT_TRUE(Doc) << Err << "\n" << G.ExplanationJson;
  const json::Value *Instrs = Doc->field("instructions");
  ASSERT_TRUE(Instrs && Instrs->isArray());
  ASSERT_EQ(Instrs->array().size(), G.Search.Program.Instrs.size());

  size_t AxiomSteps = 0;
  for (const json::Value &I : Instrs->array()) {
    const json::Value *Ldiq = I.field("ldiq");
    const json::Value *Direct = I.field("directly_in_spec");
    const json::Value *Chain = I.field("chain");
    ASSERT_TRUE(Ldiq && Direct && Chain && Chain->isArray());
    // Every instruction is accounted for: a derivation chain, a verbatim
    // spec occurrence, or a constant materialization.
    EXPECT_TRUE(Ldiq->boolValue() || Direct->boolValue() ||
                !Chain->array().empty())
        << I.field("mnemonic")->stringValue();
    for (const json::Value &S : Chain->array()) {
      ASSERT_TRUE(S.field("kind") && S.field("from") && S.field("to"));
      if (S.field("kind")->stringValue() != "axiom")
        continue;
      ++AxiomSteps;
      // Axiom steps carry the rule identity and its substitution.
      ASSERT_TRUE(S.field("axiom") && S.field("axiom")->isString());
      EXPECT_FALSE(S.field("axiom")->stringValue().empty());
      ASSERT_TRUE(S.field("axiom_index") &&
                  S.field("axiom_index")->isNumber());
      ASSERT_TRUE(S.field("round") && S.field("round")->isNumber());
      ASSERT_TRUE(S.field("subst") && S.field("subst")->isObject());
    }
  }
  // Byteswap4 only compiles through heavy rewriting: at least one emitted
  // instruction must have been derived via an axiom.
  EXPECT_GT(AxiomSteps, 0u);

  // The annotated listing mentions every mnemonic and the universe facts.
  for (const machine::Instruction &I : G.Search.Program.Instrs)
    EXPECT_NE(G.ExplanationListing.find(I.Mnemonic), std::string::npos)
        << I.Mnemonic;
  EXPECT_NE(G.ExplanationListing.find("cycle"), std::string::npos);

  // The K-1 probe refuted 4 cycles and names the binding families.
  EXPECT_NE(G.WhyUnsatText.find("K=4 refuted:"), std::string::npos)
      << G.WhyUnsatText;
  EXPECT_NE(G.WhyUnsatText.find("capacity"), std::string::npos)
      << G.WhyUnsatText;
}

TEST(Explain, WhyUnsatNamesTheCriticalPathBound) {
  // mulq's latency makes K=7 both the answer and the critical path, so the
  // explain probe's K=6 is refuted by the goal deadline alone; the report
  // names the bound rather than the lone deadline clause.
  driver::Options Opts;
  Opts.WhyUnsat = true;
  driver::Superoptimizer Opt(Opts);
  driver::CompileResult R = Opt.compileSource(
      R"((\procdecl mul ((x long) (y long)) long (:= (\res (\mul64 x y)))))");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Gmas.size(), 1u);
  const driver::GmaResult &G = R.Gmas[0];
  ASSERT_TRUE(G.ok()) << G.Error;
  EXPECT_EQ(G.Search.Cycles, 7u);
  EXPECT_EQ(G.Search.CriticalPath, 7u);
  EXPECT_EQ(G.Search.WhyUnsatCycles, 6u);
  EXPECT_EQ(G.WhyUnsatText,
            "K=6 refuted: below the critical-path bound of 7 cycles ('\\res')");
}

TEST(Explain, ClauseTagFieldsMarkOverflow) {
  using namespace codegen;
  // The last values each field holds decode exactly.
  uint32_t T = makeClauseTag(ClauseFamily::Operand, 253, 13, 65534);
  EXPECT_EQ(tagFamily(T), ClauseFamily::Operand);
  ASSERT_TRUE(tagHasCycle(T));
  EXPECT_EQ(tagCycle(T), 253u);
  ASSERT_TRUE(tagHasUnit(T));
  EXPECT_EQ(tagUnit(T), 13u);
  EXPECT_EQ(tagDetail(T), 65534u);
  // Past a field's range the value decodes as unknown: never as "not
  // cycle-specific", never wrapped onto a smaller value, and without
  // disturbing the other fields.
  for (unsigned Cycle : {254u, 255u, 300u}) {
    T = makeClauseTag(ClauseFamily::Exclusivity, Cycle, 1, 7);
    EXPECT_EQ(tagFamily(T), ClauseFamily::Exclusivity) << Cycle;
    EXPECT_TRUE(tagHasCycle(T)) << Cycle;
    EXPECT_EQ(tagCycle(T), TagUnknown) << Cycle;
    EXPECT_EQ(tagUnit(T), 1u) << Cycle;
    EXPECT_EQ(tagDetail(T), 7u) << Cycle;
  }
  for (uint32_t Detail : {65535u, 65536u, 70000u}) {
    T = makeClauseTag(ClauseFamily::Operand, 3, 0, Detail);
    EXPECT_EQ(tagDetail(T), TagUnknown) << Detail;
    EXPECT_EQ(tagCycle(T), 3u) << Detail;
    EXPECT_EQ(tagUnit(T), 0u) << Detail;
  }
  T = makeClauseTag(ClauseFamily::Guard, 0, 14);
  EXPECT_TRUE(tagHasUnit(T));
  EXPECT_EQ(tagUnit(T), TagUnknown);
  // Absent fields stay absent.
  T = makeClauseTag(ClauseFamily::Memory);
  EXPECT_FALSE(tagHasCycle(T));
  EXPECT_FALSE(tagHasUnit(T));
  EXPECT_EQ(tagDetail(T), 0u);
}

TEST(Explain, WhyUnsatPrintsOverflowedFieldsAsUnknown) {
  using namespace codegen;
  SearchResult R;
  R.Found = true;
  R.Cycles = 302;
  R.WhyUnsatCycles = 301;
  R.WhyUnsatTags = {makeClauseTag(ClauseFamily::Exclusivity, 300, 0),
                    makeClauseTag(ClauseFamily::Operand, 255, 0, 70000)};
  Universe U; // Empty: no term has a mnemonic to print.
  std::string Text = explain::whyUnsatReport(R, U, {});
  EXPECT_NE(Text.find("K=301 refuted:"), std::string::npos) << Text;
  EXPECT_NE(Text.find("issue-slot capacity on U0 at cycle ?"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("operand availability of t? (?) at cycle ?"),
            std::string::npos)
      << Text;
  EXPECT_EQ(Text.find("44"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("4464"), std::string::npos) << Text;
}

TEST(Explain, WhyUnsatEmptyWhenNotRequested) {
  driver::Superoptimizer Opt;
  driver::CompileResult R = Opt.compileSource(byteswapSource(2));
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_TRUE(R.Gmas[0].ok()) << R.Gmas[0].Error;
  EXPECT_TRUE(R.Gmas[0].WhyUnsatText.empty());
  EXPECT_TRUE(R.Gmas[0].ExplanationJson.empty());
}

TEST(Explain, EGraphDumpsParse) {
  driver::Options Opts;
  Opts.EGraphDump = true;
  driver::Superoptimizer Opt(Opts);
  driver::CompileResult R = Opt.compileSource(
      R"((\procdecl tiny ((x long)) long (:= (\res (\add64 x 1)))))");
  ASSERT_TRUE(R.ok()) << R.Error;
  const driver::GmaResult &G = R.Gmas[0];
  ASSERT_TRUE(G.ok()) << G.Error;

  // DOT: a digraph with one cluster per class.
  EXPECT_EQ(G.EGraphDotText.rfind("digraph", 0), 0u) << G.EGraphDotText;
  EXPECT_NE(G.EGraphDotText.find("cluster_c"), std::string::npos);

  // JSON: parses, and the dump lists classes with member nodes.
  std::string Err;
  auto Doc = json::parse(G.EGraphJsonText, &Err);
  ASSERT_TRUE(Doc) << Err;
  const json::Value *Dump = Doc->field("dump");
  ASSERT_TRUE(Dump && Dump->isArray());
  EXPECT_FALSE(Dump->array().empty());
  for (const json::Value &C : Dump->array()) {
    ASSERT_TRUE(C.field("class") && C.field("class")->isNumber());
    ASSERT_TRUE(C.field("nodes") && C.field("nodes")->isArray());
  }
}

TEST(Explain, FocusedDumpRestrictsClasses) {
  // A focused dump with depth 0 contains exactly the focus class.
  ir::Context Ctx;
  egraph::EGraph Graph(Ctx);
  ir::TermId T = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64, {Ctx.Terms.makeVar("a"), Ctx.Terms.makeVar("b")});
  egraph::ClassId Root = Graph.addTerm(T);

  explain::EGraphDumpOptions DOpts;
  DOpts.FocusClass = Root;
  DOpts.MaxDepth = 0;
  std::string Err;
  auto Focused = json::parse(explain::egraphToJson(Graph, DOpts), &Err);
  ASSERT_TRUE(Focused) << Err;
  ASSERT_TRUE(Focused->field("dump"));
  EXPECT_EQ(Focused->field("dump")->array().size(), 1u);

  auto Full = json::parse(explain::egraphToJson(Graph), &Err);
  ASSERT_TRUE(Full) << Err;
  // Unfocused: the add node plus both variable leaves.
  EXPECT_EQ(Full->field("dump")->array().size(), 3u);

  // Depth 1 pulls in the children.
  DOpts.MaxDepth = 1;
  auto Deep = json::parse(explain::egraphToJson(Graph, DOpts), &Err);
  ASSERT_TRUE(Deep) << Err;
  EXPECT_EQ(Deep->field("dump")->array().size(), 3u);
}

} // namespace
