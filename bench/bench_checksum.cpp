//===- bench/bench_checksum.cpp - E5: the packet checksum -----------------===//
//
// Regenerates the paper's largest challenge (section 8, Figures 5/6): the
// ones-complement checksum with program-specific add/carry axioms,
// hand-specified software pipelining, and word parallelism. The paper
// reports 10 cycles / 31 instructions for the loop body after ~4 hours;
// the shape to reproduce is (a) the pipeline compiles and verifies,
// (b) problem size grows with the unroll factor, (c) SAT/matching dominate
// the cost as the problem grows.
//
// The sweep compiles the loop body at unroll factors 1, 2, 4 (lanes).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Superoptimizer.h"

#include <cstdio>
#include <string>

using namespace denali;
using namespace denali::bench;

int main() {
  banner("E5", "checksum loop body vs unroll factor (lanes)");
  std::printf("paper: 4-lane loop body = 10 cycles, 31 instructions "
              "(4 hours on a 667MHz Alpha)\n\n");
  std::printf("%-7s %-8s %-8s %-12s %-10s %-12s %-10s %-8s\n", "lanes",
              "cycles", "instrs", "enodes", "match-s", "sat-vars", "sat-s",
              "verify");
  for (unsigned Lanes : {1u, 2u, 4u}) {
    driver::Superoptimizer Opt;
    Opt.options().Search.MaxCycles = 12;
    Opt.options().Matching.MaxNodes = 60000;
    driver::CompileResult R = Opt.compileSource(checksumSource(Lanes));
    if (!R.ok() || R.Gmas.empty() || !R.Gmas[0].ok()) {
      std::printf("%-7u FAILED: %s\n", Lanes,
                  (R.ok() && !R.Gmas.empty() ? R.Gmas[0].Error : R.Error)
                      .c_str());
      continue;
    }
    driver::GmaResult &G = R.Gmas[0];
    auto VerifyErr = Opt.verify(G);
    // Each probe reports the variables it added to the ladder's solver, so
    // their sum is the largest instance the search built.
    double SatSeconds = 0;
    int SatVars = 0;
    for (const codegen::Probe &P : G.Search.Probes) {
      SatSeconds += P.SolveSeconds;
      SatVars += P.Stats.Vars;
    }
    std::printf("%-7u %-8u %-8zu %-12zu %-10.2f %-12d %-10.3f %-8s\n", Lanes,
                G.Search.Cycles, G.Search.Program.Instrs.size(),
                G.Matching.FinalNodes, G.MatchSeconds, SatVars, SatSeconds,
                VerifyErr ? "FAIL" : "ok");
  }

  banner("E5c", "automatic \\pipeline vs hand-pipelined vs plain loop");
  std::printf("(the paper hand-specified pipelining; \\pipeline implements "
              "its unimplemented design)\n");
  {
    auto compileLoop = [](const char *Annot) {
      std::string Src = strFormat(R"(
(\opdecl add (long long) long)
(\axiom (forall (a b) (pats (add a b))
  (eq (add a b) (\add64 (\add64 a b) (\cmpult (\add64 a b) a)))))
(\procdecl f ((ptr (\ref long)) (ptrend (\ref long)) (sum long)) long
  (\do %s (-> (\cmpult ptr ptrend)
    (\semi (:= (sum (add sum (\deref ptr))))
           (:= (ptr (+ ptr 8)))))))
)", Annot);
      driver::Superoptimizer Opt;
      Opt.options().Search.MaxCycles = 12;
      driver::CompileResult R = Opt.compileSource(Src);
      unsigned Cycles = 0;
      if (R.ok())
        for (driver::GmaResult &G : R.Gmas)
          if (G.ok())
            Cycles = G.Search.Cycles; // Loop body is last.
      return Cycles;
    };
    std::printf("  plain loop body:      %u cycles\n", compileLoop(""));
    std::printf("  \\pipeline loop body:  %u cycles\n",
                compileLoop("(\\pipeline)"));
  }

  banner("E5b", "the 4-lane loop body program");
  {
    driver::Superoptimizer Opt;
    Opt.options().Search.MaxCycles = 12;
    Opt.options().Matching.MaxNodes = 60000;
    driver::CompileResult R = Opt.compileSource(checksumSource(4));
    if (R.ok() && R.Gmas[0].ok())
      std::printf("%s\n", R.Gmas[0].Search.Program.toString().c_str());
  }
  return 0;
}
