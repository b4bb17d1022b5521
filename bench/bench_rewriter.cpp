//===- bench/bench_rewriter.cpp - E10: E-graph vs rewriting engine --------===//
//
// Regenerates the section 5 argument for the E-graph over conventional
// rewriting: "a transformation that improves efficiency may cause the
// failure of subsequent matches that would have produced even greater
// gains." The greedy cost-directed rewriter strength-reduces reg6*4 into
// reg6<<2 and thereby loses the s4addl pattern; Denali keeps both forms in
// the E-graph and lets the SAT solver pick.
//
// Table: goal, Denali cycles, rewriter+list-scheduler cycles, naive
// codegen cycles.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "axioms/BuiltinAxioms.h"
#include "baseline/EGraphExtract.h"
#include "baseline/Rewriter.h"
#include "egraph/EGraph.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "baseline/TreeCodegen.h"
#include "driver/Superoptimizer.h"

#include <cstdio>

using namespace denali;
using namespace denali::bench;
using denali::ir::Builtin;

namespace {

ir::TermId fig2(ir::Context &Ctx) {
  return Ctx.Terms.makeBuiltin(
      Builtin::Add64,
      {Ctx.Terms.makeBuiltin(Builtin::Mul64, {Ctx.Terms.makeVar("reg6"),
                                              Ctx.Terms.makeConst(4)}),
       Ctx.Terms.makeConst(1)});
}

ir::TermId scaled8(ir::Context &Ctx) {
  return Ctx.Terms.makeBuiltin(
      Builtin::Add64,
      {Ctx.Terms.makeBuiltin(Builtin::Mul64, {Ctx.Terms.makeVar("i"),
                                              Ctx.Terms.makeConst(8)}),
       Ctx.Terms.makeVar("base")});
}

ir::TermId maskCombine(ir::Context &Ctx) {
  // (x & 0xffff) | (y << 16): zapnot + sll + bis for everyone; parity case.
  return Ctx.Terms.makeBuiltin(
      Builtin::Or64,
      {Ctx.Terms.makeBuiltin(Builtin::And64, {Ctx.Terms.makeVar("x"),
                                              Ctx.Terms.makeConst(0xffff)}),
       Ctx.Terms.makeBuiltin(Builtin::Shl64, {Ctx.Terms.makeVar("y"),
                                              Ctx.Terms.makeConst(16)})});
}

ir::TermId swapN(ir::Context &Ctx, unsigned N) {
  ir::TermId A = Ctx.Terms.makeVar("a");
  ir::TermId R = Ctx.Terms.makeConst(0);
  for (unsigned I = 0; I < N; ++I)
    R = Ctx.Terms.makeBuiltin(
        Builtin::StoreB,
        {R, Ctx.Terms.makeConst(I),
         Ctx.Terms.makeBuiltin(Builtin::SelectB,
                               {A, Ctx.Terms.makeConst(N - 1 - I)})});
  return R;
}

ir::TermId swap4(ir::Context &Ctx) { return swapN(Ctx, 4); }

ir::TermId swap2(ir::Context &Ctx) {
  ir::TermId A = Ctx.Terms.makeVar("a");
  ir::TermId Inner = Ctx.Terms.makeBuiltin(
      Builtin::StoreB,
      {Ctx.Terms.makeConst(0), Ctx.Terms.makeConst(0),
       Ctx.Terms.makeBuiltin(Builtin::SelectB, {A, Ctx.Terms.makeConst(1)})});
  return Ctx.Terms.makeBuiltin(
      Builtin::StoreB,
      {Inner, Ctx.Terms.makeConst(1),
       Ctx.Terms.makeBuiltin(Builtin::SelectB, {A, Ctx.Terms.makeConst(0)})});
}

struct Row {
  const char *Name;
  ir::TermId (*Build)(ir::Context &);
};

} // namespace

int main() {
  banner("E10",
         "Denali vs equality-saturation extraction vs rewriter vs naive");
  std::printf("(egg-style extraction shares Denali's E-graph but picks one "
              "term by local cost,\n without scheduling awareness)\n");
  std::printf("%-24s %-9s %-14s %-16s %-9s\n", "goal", "denali",
              "egraph+extract", "rewrite+sched", "naive");
  const Row Rows[] = {
      {"reg6*4 + 1 (Fig 2)", fig2},
      {"i*8 + base", scaled8},
      {"(x&0xffff)|(y<<16)", maskCombine},
      {"swap2", swap2},
      {"swap4 (Fig 4)", swap4},
  };
  for (const Row &R : Rows) {
    // Denali.
    driver::Superoptimizer Opt;
    ir::Context &Ctx = Opt.context();
    ir::TermId Goal = R.Build(Ctx);
    driver::GmaResult DR = Opt.compileGoals("cmp", {{"res", Goal}});
    // Equality saturation + extraction over the same axioms.
    egraph::EGraph G(Ctx);
    egraph::ClassId GoalClass = G.addTerm(Goal);
    {
      const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
      match::Matcher M(Axioms);
      for (match::Elaborator &E : match::standardElaborators())
        M.addElaborator(std::move(E));
      match::MatchLimits Limits;
      Limits.MaxNodes = 30000;
      M.saturate(G, Limits);
    }
    std::string Err;
    auto Extracted = baseline::extractAndSchedule(
        G, Opt.isa(), {{"res", G.find(GoalClass)}}, "es", &Err);
    // Greedy rewriter, then the same list scheduler as the naive baseline.
    baseline::RewriteResult RW = baseline::greedyRewrite(Ctx, Opt.isa(), Goal);
    auto Scheduled = baseline::naiveCodegen(Ctx, Opt.isa(),
                                            {{"res", RW.Term}}, "rw", &Err);
    auto Naive =
        baseline::naiveCodegen(Ctx, Opt.isa(), {{"res", Goal}}, "nv", &Err);
    std::printf("%-24s %-9s %-14s %-16s %-9s\n", R.Name,
                DR.ok() ? std::to_string(DR.Search.Cycles).c_str() : "FAIL",
                Extracted ? std::to_string(Extracted->Cycles).c_str() : "-",
                Scheduled ? std::to_string(Scheduled->Cycles).c_str() : "-",
                Naive ? std::to_string(Naive->Cycles).c_str() : "-");
  }
  std::printf("\n(Fig 2 row: the rewriter reaches (add64 (shl64 reg6 2) 1) "
              "— two instructions — because strength reduction destroyed "
              "the s4addl pattern; Denali's E-graph keeps both and emits "
              "one s4addq.)\n");
  return 0;
}
