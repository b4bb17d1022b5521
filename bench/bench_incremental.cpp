//===- bench/bench_incremental.cpp - E12: incremental budget search -------===//
//
// Fresh-vs-incremental comparison on the byteswap (Figure 3) and packet
// checksum (section 8) families. The `fresh` arm is the per-K reference
// (SearchOptions::FreshPerK): every budget is a fresh instance that
// re-encodes and re-learns from scratch. The `incremental` arm is the
// default search, whose one solver gains a cycle layer per budget
// and probes each budget under an assumption, carrying learnt clauses,
// activities, and saved phases across probes. The harness verifies the
// evidence contract — identical minimal K and identical per-budget
// SAT/UNSAT answers — and exits nonzero on any mismatch, so it doubles as a
// correctness gate in perf_smoke.
//
//   bench_incremental [--smoke]
//     --smoke  tiny problems/budgets (CI perf-smoke gate)
//
// Emits BENCH_incremental.json (one record per problem x mode, with the
// per-probe ladder) in the working directory for trend tracking.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Superoptimizer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace denali;
using namespace denali::bench;

namespace {

struct Row {
  std::string Problem;
  const char *Mode;
  unsigned Cycles = 0;
  bool LowerBoundProved = false;
  double WallSeconds = 0;
  uint64_t TotalConflicts = 0;
  std::vector<codegen::Probe> Probes;
};

codegen::SearchResult runOne(const std::string &Source, unsigned MaxCycles,
                             bool Incremental, bool *Ok) {
  driver::Superoptimizer Opt;
  Opt.options().Search.MaxCycles = MaxCycles;
  Opt.options().Search.FreshPerK = !Incremental;
  driver::CompileResult R = Opt.compileSource(Source);
  *Ok = R.ok() && !R.Gmas.empty() && R.Gmas[0].ok();
  if (!*Ok) {
    std::printf("FAILED: %s\n",
                (R.ok() && !R.Gmas.empty() ? R.Gmas[0].Error : R.Error)
                    .c_str());
    return {};
  }
  return R.Gmas[0].Search;
}

uint64_t totalConflicts(const codegen::SearchResult &R) {
  uint64_t Sum = 0;
  for (const codegen::Probe &P : R.Probes)
    Sum += P.Conflicts;
  return Sum;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
  enableObsMetrics();

  struct Problem {
    std::string Name;
    std::string Source;
    unsigned MaxCycles;
  };
  // Both arms stop at the answer, so the ceiling only bounds a failure.
  std::vector<Problem> Problems;
  if (Smoke) {
    Problems.push_back({"byteswap4", byteswapSource(4), 6});
    Problems.push_back({"checksum4", checksumSource(4), 12});
  } else {
    Problems.push_back({"byteswap4", byteswapSource(4), 6});
    Problems.push_back({"checksum2", checksumSource(2), 8});
    Problems.push_back({"checksum4", checksumSource(4), 12});
  }

  banner("E12", Smoke ? "incremental budget search (smoke)"
                      : "incremental budget search: fresh vs shared solver");
  std::printf("%-12s %-12s %-8s %-10s %-11s %-s\n", "problem", "mode",
              "cycles", "wall-s", "conflicts", "ladder");

  std::vector<Row> Rows;
  bool AllOk = true;
  // The solver is deterministic per instance, so the probe ladder and
  // conflict counts repeat exactly; wall time is the only noisy axis and
  // is reported as the minimum over a few repetitions.
  const int Reps = 3;
  for (const Problem &P : Problems) {
    const std::string &Name = P.Name;
    bool OkF = false, OkI = false;
    codegen::SearchResult Fresh = runOne(P.Source, P.MaxCycles, false, &OkF);
    codegen::SearchResult Inc = runOne(P.Source, P.MaxCycles, true, &OkI);
    if (!OkF || !OkI) {
      AllOk = false;
      continue;
    }
    for (int Rep = 1; Rep < Reps; ++Rep) {
      bool Ok = false;
      codegen::SearchResult R = runOne(P.Source, P.MaxCycles, false, &Ok);
      if (Ok)
        Fresh.WallSeconds = std::min(Fresh.WallSeconds, R.WallSeconds);
      R = runOne(P.Source, P.MaxCycles, true, &Ok);
      if (Ok)
        Inc.WallSeconds = std::min(Inc.WallSeconds, R.WallSeconds);
    }

    // The evidence contract: identical minimal K and identical per-budget
    // SAT/UNSAT answers. Solver reuse must be a pure performance change.
    if (Inc.Cycles != Fresh.Cycles ||
        Inc.LowerBoundProved != Fresh.LowerBoundProved) {
      std::printf("MISMATCH: %s incremental found %u cycles, fresh %u\n",
                  Name.c_str(), Inc.Cycles, Fresh.Cycles);
      AllOk = false;
    }
    if (Inc.Probes.size() != Fresh.Probes.size()) {
      std::printf("MISMATCH: %s probe ladders differ in length\n",
                  Name.c_str());
      AllOk = false;
    } else {
      for (size_t I = 0; I < Inc.Probes.size(); ++I)
        if (Inc.Probes[I].Cycles != Fresh.Probes[I].Cycles ||
            Inc.Probes[I].Result != Fresh.Probes[I].Result) {
          std::printf("MISMATCH: %s probe %zu evidence differs\n",
                      Name.c_str(), I);
          AllOk = false;
        }
    }

    for (int Which = 0; Which < 2; ++Which) {
      const char *Mode = Which == 0 ? "fresh" : "incremental";
      const codegen::SearchResult &R = Which == 0 ? Fresh : Inc;
      Row Rec;
      Rec.Problem = Name;
      Rec.Mode = Mode;
      Rec.Cycles = R.Cycles;
      Rec.LowerBoundProved = R.LowerBoundProved;
      Rec.WallSeconds = R.WallSeconds;
      Rec.TotalConflicts = totalConflicts(R);
      Rec.Probes = R.Probes;
      std::printf("%-12s %-12s %-8u %-10.3f %-11llu", Name.c_str(), Mode,
                  R.Cycles, R.WallSeconds,
                  static_cast<unsigned long long>(Rec.TotalConflicts));
      for (const codegen::Probe &Pr : R.Probes)
        std::printf(" %s", codegen::describeProbe(Pr).c_str());
      std::printf("\n");
      Rows.push_back(std::move(Rec));
    }

    uint64_t CF = totalConflicts(Fresh), CI = totalConflicts(Inc);
    std::printf("  conflicts saved: %lld (%.1f%%), wall speedup: %.2fx\n",
                static_cast<long long>(CF) - static_cast<long long>(CI),
                CF ? 100.0 * (1.0 - double(CI) / double(CF)) : 0.0,
                Inc.WallSeconds > 0 ? Fresh.WallSeconds / Inc.WallSeconds
                                    : 0.0);
  }

  // JSON trend record (per-probe ladder included).
  std::FILE *Out = std::fopen("BENCH_incremental.json", "w");
  if (Out) {
    std::fprintf(Out, "[\n");
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::fprintf(Out,
                   "  {\"problem\": \"%s\", \"mode\": \"%s\", "
                   "\"cycles\": %u, \"lower_bound_proved\": %s, "
                   "\"wall_s\": %.6f, \"total_conflicts\": %llu, "
                   "\"probes\": [",
                   R.Problem.c_str(), R.Mode, R.Cycles,
                   R.LowerBoundProved ? "true" : "false", R.WallSeconds,
                   static_cast<unsigned long long>(R.TotalConflicts));
      for (size_t J = 0; J < R.Probes.size(); ++J) {
        const codegen::Probe &P = R.Probes[J];
        std::fprintf(
            Out,
            "{\"k\": %u, \"result\": \"%s\", \"conflicts\": %llu, "
            "\"encode_s\": %.6f, \"solve_s\": %.6f}%s",
            P.Cycles, P.Result == sat::SolveResult::Sat ? "sat" : "unsat",
            static_cast<unsigned long long>(P.Conflicts), P.EncodeSeconds,
            P.SolveSeconds, J + 1 < R.Probes.size() ? ", " : "");
      }
      std::fprintf(Out, "]}%s\n", I + 1 < Rows.size() ? "," : "");
    }
    std::fprintf(Out, "]\n");
    std::fclose(Out);
    std::printf("\nwrote BENCH_incremental.json (%zu records)\n",
                Rows.size());
  } else {
    std::printf("\ncould not write BENCH_incremental.json\n");
  }
  writeMetricsSummary("BENCH_incremental.metrics.txt");
  return AllOk ? 0 : 1;
}
