//===- examples/quickstart.cpp - The Figure 2 walkthrough -----------------===//
//
// The smallest possible use of the library: superoptimize reg6*4 + 1.
// Denali's matcher discovers 4 = 2**2, the shift form reg6 << 2, and
// finally the single-instruction s4addq form; the SAT search proves no
// 0-cycle program exists and extracts the 1-cycle program.
//
// Build & run:  ./quickstart
//
//===----------------------------------------------------------------------===//

#include "driver/Superoptimizer.h"

#include <cstdio>

using namespace denali;

int main() {
  driver::Superoptimizer Opt;
  ir::Context &Ctx = Opt.context();

  // Build the goal term reg6*4 + 1 directly through the term API.
  ir::TermId Reg6 = Ctx.Terms.makeVar("reg6");
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64,
      {Ctx.Terms.makeBuiltin(ir::Builtin::Mul64,
                             {Reg6, Ctx.Terms.makeConst(4)}),
       Ctx.Terms.makeConst(1)});

  std::printf("goal: %s\n\n", Ctx.Terms.toString(Goal).c_str());

  driver::GmaResult R = Opt.compileGoals("quickstart", {{"res", Goal}});
  if (!R.ok()) {
    std::printf("superoptimization failed: %s\n", R.Error.c_str());
    return 1;
  }

  std::printf("matching: %u rounds, %zu E-graph nodes, %zu classes\n",
              R.Matching.Rounds, R.Matching.FinalNodes,
              R.Matching.FinalClasses);
  for (const codegen::Probe &P : R.Search.Probes)
    std::printf("probe K=%u: adds %d vars, %llu clauses -> %s\n", P.Cycles,
                P.Stats.Vars, static_cast<unsigned long long>(P.Stats.Clauses),
                P.Result == sat::SolveResult::Sat ? "SAT (program found)"
                                                  : "UNSAT (lower bound)");
  std::printf("\n%s\n", R.Search.Program.toString().c_str());

  // Correct by design — and checked by differential testing anyway.
  if (auto Err = Opt.verify(R)) {
    std::printf("verification FAILED: %s\n", Err->c_str());
    return 1;
  }
  std::printf("verified against the reference semantics on random inputs.\n");
  return 0;
}
