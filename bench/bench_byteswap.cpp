//===- bench/bench_byteswap.cpp - E3/E4: the byte-swap problems -----------===//
//
// Regenerates the paper's byteswap results (section 8, Figure 4):
//
//  * byteswap4 compiles to a 5-cycle EV6 program, with SAT problem sizes
//    per budget probe (the paper reports 1639 vars / 4613 clauses for the
//    4-cycle refutation up to 9203 / 26415 for the 8-cycle solution, ~1
//    minute total, <0.3 s of SAT);
//  * byteswap5: Denali beats the C compiler (here: the naive tree codegen
//    + list scheduler baseline) by at least one cycle;
//  * a sweep n = 2..5 with the baseline comparison for shape.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baseline/TreeCodegen.h"
#include "driver/Superoptimizer.h"

#include <cstdio>

using namespace denali;
using namespace denali::bench;

int main() {
  banner("E3/E4", "byteswap n = 2..5: Denali vs conventional codegen");
  std::printf("%-10s %-14s %-14s %-10s %-12s %-10s\n", "problem",
              "denali-cycles", "baseline-cyc", "instrs", "match-s", "sat-s");

  for (unsigned N = 2; N <= 5; ++N) {
    driver::Superoptimizer Opt;
    Opt.options().Search.MaxCycles = 10;
    driver::CompileResult R = Opt.compileSource(byteswapSource(N));
    if (!R.ok() || !R.Gmas[0].ok()) {
      std::printf("byteswap%u: FAILED (%s)\n", N,
                  (R.ok() ? R.Gmas[0].Error : R.Error).c_str());
      return 1;
    }
    driver::GmaResult &G = R.Gmas[0];
    if (auto Err = Opt.verify(G)) {
      std::printf("byteswap%u: VERIFY FAILED (%s)\n", N, Err->c_str());
      return 1;
    }
    // Baseline: same goal terms through the naive tree codegen.
    std::vector<std::pair<std::string, ir::TermId>> Goals;
    for (size_t I = 0; I < G.Gma.Targets.size(); ++I)
      if (G.Gma.Targets[I] == "\\res")
        Goals.emplace_back("res", G.Gma.NewVals[I]);
    std::string Err;
    auto Baseline = baseline::naiveCodegen(Opt.context(), Opt.isa(), Goals,
                                           "naive", &Err);
    double SatSeconds = 0;
    for (const codegen::Probe &P : G.Search.Probes)
      SatSeconds += P.SolveSeconds;
    std::printf("%-10s %-14u %-14s %-10zu %-12.2f %-10.3f\n",
                strFormat("byteswap%u", N).c_str(), G.Search.Cycles,
                Baseline ? std::to_string(Baseline->Cycles).c_str() : "-",
                G.Search.Program.Instrs.size(), G.MatchSeconds, SatSeconds);
  }

  banner("E3", "byteswap4 SAT problem sizes per budget probe");
  std::printf("paper: K=4 refutation 1639 vars / 4613 clauses; "
              "K=8 solution 9203 / 26415\n");
  std::printf("%-6s %-10s %-12s %-8s %-10s\n", "K", "vars", "clauses",
              "result", "solve-s");
  {
    driver::Superoptimizer Opt;
    Opt.options().Search.MaxCycles = 8;
    // The per-K reference: each probe is the whole budget-K instance.
    Opt.options().Search.FreshPerK = true;
    driver::CompileResult R = Opt.compileSource(byteswapSource(4));
    if (!R.ok() || !R.Gmas[0].ok())
      return 1;
    for (const codegen::Probe &P : R.Gmas[0].Search.Probes)
      std::printf("%-6u %-10d %-12llu %-8s %-10.3f\n", P.Cycles, P.Stats.Vars,
                  static_cast<unsigned long long>(P.Stats.Clauses),
                  P.Result == sat::SolveResult::Sat ? "sat" : "unsat",
                  P.SolveSeconds);
    std::printf("\npaper result: 5-cycle optimum. measured: %u-cycle "
                "optimum (%s lower-bound certificate)\n",
                R.Gmas[0].Search.Cycles,
                R.Gmas[0].Search.LowerBoundProved ? "with" : "without");
  }
  return 0;
}
