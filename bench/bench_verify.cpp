//===- bench/bench_verify.cpp - E13: differential-harness throughput ------===//
//
// The EXPERIMENTS.md E13 harness: measures how fast the randomized
// differential-verification loop (GmaGen -> pipeline -> oracle) iterates,
// and how quickly the oracle catches the planted encoder-latency bug
// (UniverseOptions::TestLatencyDelta = -2).
//
//   bench_verify [--smoke]
//     --smoke  fewer GMAs (CI perf-smoke gate)
//
// Gates correctness as well as reporting numbers: any non-benign oracle
// verdict in the clean runs, or a fault run that completes *without* a
// detection, exits nonzero. Emits BENCH_verify.json for trend tracking.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Superoptimizer.h"
#include "support/Timer.h"
#include "verify/GmaGen.h"
#include "verify/Oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace denali;
using namespace denali::bench;

namespace {

struct Row {
  std::string Strategy;
  unsigned Gmas = 0;
  unsigned Compiled = 0;
  unsigned Exhausted = 0;
  unsigned Failures = 0;
  double WallSeconds = 0;
};

driver::Superoptimizer makeOpt(int LatencyDelta, bool Explain = false) {
  driver::Options Opts;
  Opts.Search.MaxCycles = 12;
  Opts.Matching.MaxNodes = 8000;
  Opts.Matching.MaxRounds = 8;
  Opts.Universe.TestLatencyDelta = LatencyDelta;
  Opts.Explain = Explain;
  return driver::Superoptimizer(Opts);
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;

  const uint64_t Seed = 1;
  const unsigned Count = Smoke ? 40 : 150;

  banner("E13", Smoke ? "differential harness throughput (smoke)"
                      : "differential harness throughput");
  std::printf("%-12s %-8s %-10s %-11s %-10s %-10s\n", "strategy", "gmas",
              "compiled", "exhausted", "wall-s", "GMA/s");

  bool AllOk = true;
  std::vector<Row> Rows;
  {
    // The record keeps its "strategy" identity field, which bench_compare
    // matches against the committed baseline.
    const char *Name = "linear";
    driver::Superoptimizer Opt = makeOpt(0);
    verify::GmaGen Gen(Opt.context(), Seed);
    Row R;
    R.Strategy = Name;
    R.Gmas = Count;
    Timer T;
    for (unsigned I = 0; I < Count; ++I) {
      verify::OracleVerdict V = verify::compileAndCheck(Opt, Gen.next());
      if (V.Status == verify::OracleStatus::Pass)
        ++R.Compiled;
      else if (V.Status == verify::OracleStatus::BudgetExhausted)
        ++R.Exhausted;
      else {
        ++R.Failures;
        std::printf("ORACLE FAILURE (%s): %s\n", Name,
                    V.toString().c_str());
        AllOk = false;
      }
    }
    R.WallSeconds = T.seconds();
    std::printf("%-12s %-8u %-10u %-11u %-10.3f %-10.1f\n", Name, R.Gmas,
                R.Compiled, R.Exhausted, R.WallSeconds,
                R.Gmas / R.WallSeconds);
    Rows.push_back(std::move(R));
  }

  // Planted-bug detection: latencies understated by 2 cycles; the oracle
  // must object within the smoke budget (it typically objects to the
  // first emitted load or multiply).
  unsigned DetectedAfter = 0;
  {
    driver::Superoptimizer Opt = makeOpt(-2);
    verify::GmaGen Gen(Opt.context(), Seed);
    for (unsigned I = 0; I < Count; ++I) {
      verify::OracleVerdict V = verify::compileAndCheck(Opt, Gen.next());
      if (!V.benign()) {
        DetectedAfter = I + 1;
        break;
      }
    }
    if (DetectedAfter == 0) {
      std::printf("planted latency bug NOT detected in %u GMAs\n", Count);
      AllOk = false;
    } else {
      std::printf("planted latency bug detected after %u GMA(s)\n",
                  DetectedAfter);
    }
  }

  // E14: observability overhead — the identical linear batch with the obs
  // layer off, then on (counters + spans recorded, no trace outputs).
  // Reported, not gated: the target is <2% (EXPERIMENTS.md E14); wall noise
  // on a loaded CI machine exceeds a sensible hard threshold. The enabled
  // arm's registry is dumped as the metrics summary perf_smoke checks.
  double ObsOffSeconds = 0, ObsOnSeconds = 0;
  {
    const unsigned OverheadCount = Smoke ? 20 : 60;
    // Interleave the arms and take the minimum per arm: the batch is small
    // enough that scheduler noise would otherwise swamp a few-percent
    // effect (the same trick bench_incremental uses for its wall times).
    const int OverheadReps = 3;
    for (int Rep = 0; Rep < OverheadReps; ++Rep)
      for (int Phase = 0; Phase < 2; ++Phase) {
        obs::ObsConfig C;
        C.Enabled = Phase == 1;
        obs::configure(C);
        obs::clearEvents();
        obs::Registry::global().resetAll();
        driver::Superoptimizer Opt = makeOpt(0);
        verify::GmaGen Gen(Opt.context(), Seed);
        Timer T;
        for (unsigned I = 0; I < OverheadCount; ++I)
          if (!verify::compileAndCheck(Opt, Gen.next()).benign())
            AllOk = false;
        double &Arm = Phase == 0 ? ObsOffSeconds : ObsOnSeconds;
        double S = T.seconds();
        Arm = (Rep == 0) ? S : std::min(Arm, S);
      }
    banner("E14", "observability overhead (same linear batch, obs off vs on)");
    std::printf("obs off: %.3fs   obs on: %.3fs   overhead: %+.2f%%\n",
                ObsOffSeconds, ObsOnSeconds,
                ObsOffSeconds > 0
                    ? 100.0 * (ObsOnSeconds / ObsOffSeconds - 1.0)
                    : 0.0);
    writeMetricsSummary("BENCH_verify.metrics.txt");
    obs::ObsConfig Off;
    obs::configure(Off);
  }

  // E15: provenance overhead — the same linear batch with the explanation
  // layer off, then on (e-graph proof forest, per-union justifications,
  // substitution interning, and per-program derivation-chain construction).
  // Reported, not gated, for the same wall-noise reason as E14; the
  // EXPERIMENTS.md E15 target is <3%.
  double ProvOffSeconds = 0, ProvOnSeconds = 0;
  {
    const unsigned OverheadCount = Smoke ? 20 : 60;
    const int OverheadReps = 3;
    for (int Rep = 0; Rep < OverheadReps; ++Rep)
      for (int Phase = 0; Phase < 2; ++Phase) {
        driver::Superoptimizer Opt = makeOpt(0, Phase == 1);
        verify::GmaGen Gen(Opt.context(), Seed);
        Timer T;
        for (unsigned I = 0; I < OverheadCount; ++I)
          if (!verify::compileAndCheck(Opt, Gen.next()).benign())
            AllOk = false;
        double &Arm = Phase == 0 ? ProvOffSeconds : ProvOnSeconds;
        double S = T.seconds();
        Arm = (Rep == 0) ? S : std::min(Arm, S);
      }
    banner("E15",
           "provenance overhead (same linear batch, provenance off vs on)");
    std::printf("prov off: %.3fs   prov on: %.3fs   overhead: %+.2f%%\n",
                ProvOffSeconds, ProvOnSeconds,
                ProvOffSeconds > 0
                    ? 100.0 * (ProvOnSeconds / ProvOffSeconds - 1.0)
                    : 0.0);
  }

  std::FILE *Out = std::fopen("BENCH_verify.json", "w");
  if (Out) {
    std::fprintf(Out, "[\n");
    for (const Row &R : Rows)
      std::fprintf(Out,
                   "  {\"strategy\": \"%s\", \"gmas\": %u, "
                   "\"compiled\": %u, \"exhausted\": %u, "
                   "\"failures\": %u, \"wall_s\": %.6f, "
                   "\"gma_per_s\": %.2f},\n",
                   R.Strategy.c_str(), R.Gmas, R.Compiled, R.Exhausted,
                   R.Failures, R.WallSeconds, R.Gmas / R.WallSeconds);
    std::fprintf(Out,
                 "  {\"fault\": \"latency-delta-minus-2\", "
                 "\"detected_after_gmas\": %u},\n",
                 DetectedAfter);
    std::fprintf(Out,
                 "  {\"e14_obs_off_s\": %.6f, \"e14_obs_on_s\": %.6f, "
                 "\"e14_overhead_pct\": %.2f},\n",
                 ObsOffSeconds, ObsOnSeconds,
                 ObsOffSeconds > 0
                     ? 100.0 * (ObsOnSeconds / ObsOffSeconds - 1.0)
                     : 0.0);
    std::fprintf(Out,
                 "  {\"e15_prov_off_s\": %.6f, \"e15_prov_on_s\": %.6f, "
                 "\"e15_overhead_pct\": %.2f}\n]\n",
                 ProvOffSeconds, ProvOnSeconds,
                 ProvOffSeconds > 0
                     ? 100.0 * (ProvOnSeconds / ProvOffSeconds - 1.0)
                     : 0.0);
    std::fclose(Out);
    std::printf("\nwrote BENCH_verify.json (%zu records)\n",
                Rows.size() + 3);
  } else {
    std::printf("\ncould not write BENCH_verify.json\n");
  }
  return AllOk ? 0 : 1;
}
