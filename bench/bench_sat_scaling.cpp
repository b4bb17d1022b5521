//===- bench/bench_sat_scaling.cpp - E9: SAT problem growth ---------------===//
//
// Regenerates the section 6/8 observation that constraint-generation size
// grows with the cycle budget K (the paper's byteswap4 numbers: 1639 vars
// / 4613 clauses at K=4 up to 9203 / 26415 at K=8), and runs the two
// encoder ablations DESIGN.md calls out:
//
//   * ladder vs pairwise at-most-one encodings;
//   * two-cluster (EV6-faithful) vs single-cluster availability model.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Superoptimizer.h"
#include "gma/GMA.h"

#include <cstdio>

using namespace denali;
using namespace denali::bench;

static void sweep(const char *Title, sat::AtMostOneStyle Style,
                  bool SingleCluster) {
  std::printf("\n-- %s --\n", Title);
  std::printf("%-6s %-10s %-12s %-8s %-10s %-10s\n", "K", "vars", "clauses",
              "result", "encode-s", "solve-s");
  driver::Superoptimizer Opt;
  Opt.options().Search.MaxCycles = 8;
  // The per-K reference: each probe reports its whole budget-K instance,
  // not the layers a shared solver gained.
  Opt.options().Search.FreshPerK = true;
  Opt.options().Search.Encoding.AmoStyle = Style;
  Opt.options().Search.Encoding.SingleCluster = SingleCluster;
  driver::CompileResult R = Opt.compileSource(byteswapSource(4));
  if (!R.ok() || !R.Gmas[0].ok()) {
    std::printf("FAILED: %s\n",
                (R.ok() ? R.Gmas[0].Error : R.Error).c_str());
    return;
  }
  for (const codegen::Probe &P : R.Gmas[0].Search.Probes)
    std::printf("%-6u %-10d %-12llu %-8s %-10.3f %-10.3f\n", P.Cycles,
                P.Stats.Vars,
                static_cast<unsigned long long>(P.Stats.Clauses),
                P.Result == sat::SolveResult::Sat ? "sat" : "unsat",
                P.EncodeSeconds, P.SolveSeconds);
  std::printf("optimum: %u cycles\n", R.Gmas[0].Search.Cycles);
}

int main() {
  banner("E9", "byteswap4: SAT problem size vs cycle budget K");
  std::printf("paper: 1639 vars / 4613 clauses (K=4) ... 9203 / 26415 "
              "(K=8); <0.3 s total SAT\n");

  sweep("default: ladder AMO, two clusters", sat::AtMostOneStyle::Ladder,
        /*SingleCluster=*/false);
  sweep("ablation: pairwise AMO", sat::AtMostOneStyle::Pairwise,
        /*SingleCluster=*/false);
  sweep("ablation: single cluster (no cross-cluster delay)",
        sat::AtMostOneStyle::Ladder, /*SingleCluster=*/true);

  banner("E9c", "certified refutations (RUP-checked lower bounds)");
  {
    driver::Superoptimizer Opt;
    Opt.options().Search.MaxCycles = 8;
    Opt.options().Search.CertifyRefutations = true;
    driver::CompileResult R = Opt.compileSource(byteswapSource(4));
    if (R.ok() && R.Gmas[0].ok()) {
      std::printf("%-6s %-8s %-12s %-10s %-12s\n", "K", "result",
                  "proof-steps", "checked", "check-s");
      for (const codegen::Probe &P : R.Gmas[0].Search.Probes)
        std::printf("%-6u %-8s %-12zu %-10s %-12.3f\n", P.Cycles,
                    P.Result == sat::SolveResult::Sat ? "sat" : "unsat",
                    P.ProofSteps,
                    P.Result == sat::SolveResult::Unsat
                        ? (P.ProofChecked ? "yes" : "NO")
                        : "-",
                    P.ProofCheckSeconds);
      std::printf("(each 'unsat' row is an independently RUP-checked "
                  "certificate that K cycles are impossible)\n");
    }
  }
  return 0;
}
