//===- tests/harness/VerifySmoke.cpp - differential smoke driver ----------===//
//
// The harness's command-line front end: streams seeded random GMAs from
// verify::GmaGen through the full pipeline, once on the ladder and once on
// the fresh per-K reference search, and holds each result against the
// differential oracle (reference evaluator vs. simulator vs. schedule
// replay, and the two searches agreeing on the minimal cycle count).
//
// With --machines a,b (two or more machine-model backends) the harness
// switches to the cross-backend arm: every GMA compiles under each
// backend, each result passes its own single-machine oracle, and all
// backends' simulators must agree on shared random input vectors
// (verify::crossCompileAndCheck).
//
// Four ctest entries run this binary:
//   verify_smoke             — N GMAs, ladder and reference, zero
//     tolerance;
//   verify_fault_detect      — same stream with --inject-latency-bug, which
//     understates Universe latencies by 2 cycles (the E13 planted bug);
//     --expect-detect inverts the exit code: success means the oracle
//     caught the bug;
//   verify_cross_backend     — N GMAs through --machines alpha,rv64;
//   verify_fault_detect_rv64 — cross-backend stream with
//     --inject-rv64-latency-bug, which understates latencies only in the
//     rv64 backend's universe; only the cross-backend run compiles under
//     rv64 at all, so only it can catch this plant (E18).
//
// Usage: verify_smoke [--seed N] [--count N] [--trials N] [--max-cycles N]
//                     [--machines alpha,rv64]
//                     [--inject-latency-bug] [--inject-rv64-latency-bug]
//                     [--expect-detect] [-v] [--dump DIR]
//
// --dump writes the generated stream as corpus files (DIR/<name>.gma in
// the verify::GmaText format) instead of compiling — the documented way to
// regenerate tests/corpus/gma/.
//
//===----------------------------------------------------------------------===//

#include "driver/Superoptimizer.h"
#include "support/StringExtras.h"
#include "support/Timer.h"
#include "verify/CrossBackend.h"
#include "verify/GmaGen.h"
#include "verify/GmaText.h"
#include "verify/Oracle.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace denali;

namespace {

struct Flags {
  uint64_t Seed = 1;
  unsigned Count = 200;
  unsigned Trials = 3;
  unsigned MaxCycles = 12;
  std::vector<std::string> Machines; ///< Empty: single-machine mode.
  bool InjectLatencyBug = false;
  bool InjectRV64LatencyBug = false;
  bool ExpectDetect = false;
  bool Verbose = false;
  std::string DumpDir;
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--count N] [--trials N] [--max-cycles N]\n"
      "          [--machines alpha,rv64]\n"
      "          [--inject-latency-bug] [--inject-rv64-latency-bug]\n"
      "          [--expect-detect] [-v]\n",
      Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Flags F;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--seed") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      F.Seed = std::strtoull(V, nullptr, 0);
    } else if (Arg == "--count") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      F.Count = std::strtoul(V, nullptr, 0);
    } else if (Arg == "--trials") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      F.Trials = std::strtoul(V, nullptr, 0);
    } else if (Arg == "--max-cycles") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      F.MaxCycles = std::strtoul(V, nullptr, 0);
    } else if (Arg == "--machines") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      F.Machines.clear();
      std::string Spec = V;
      size_t Pos = 0;
      while (Pos <= Spec.size()) {
        size_t Comma = Spec.find(',', Pos);
        F.Machines.push_back(Spec.substr(
            Pos,
            Comma == std::string::npos ? std::string::npos : Comma - Pos));
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
    } else if (Arg == "--inject-rv64-latency-bug") {
      F.InjectRV64LatencyBug = true;
    } else if (Arg == "--dump") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      F.DumpDir = V;
    } else if (Arg == "--inject-latency-bug") {
      F.InjectLatencyBug = true;
    } else if (Arg == "--expect-detect") {
      F.ExpectDetect = true;
    } else if (Arg == "-v" || Arg == "--verbose") {
      F.Verbose = true;
    } else {
      return usage(argv[0]);
    }
  }

  // Cross-backend mode: one Superoptimizer (hence one ir::Context) per
  // requested machine; every GMA is judged by verify::crossCompileAndCheck.
  if (F.Machines.size() >= 2) {
    std::vector<std::unique_ptr<driver::Superoptimizer>> Owners;
    std::vector<driver::Superoptimizer *> Machines;
    for (const std::string &Name : F.Machines) {
      driver::Options MOpts;
      MOpts.MachineName = Name;
      MOpts.Search.MaxCycles = F.MaxCycles;
      MOpts.Matching.MaxNodes = 8000;
      MOpts.Matching.MaxRounds = 8;
      if (F.InjectLatencyBug ||
          (F.InjectRV64LatencyBug && Name == "rv64"))
        MOpts.Universe.TestLatencyDelta = -2;
      Owners.push_back(std::make_unique<driver::Superoptimizer>(MOpts));
      Machines.push_back(Owners.back().get());
    }
    verify::GmaGen Gen(Machines[0]->context(), F.Seed);
    verify::CrossBackendOptions COpts;
    COpts.Trials = F.Trials;
    COpts.InputSeed = F.Seed + 1;

    Timer T;
    unsigned Failures = 0, Agreed = 0, Uncomputable = 0, Exhausted = 0;
    std::string FirstFailure;
    for (unsigned I = 0; I < F.Count; ++I) {
      gma::GMA G = Gen.next();
      verify::CrossBackendVerdict V =
          verify::crossCompileAndCheck(Machines, G, COpts);
      if (!V.benign()) {
        ++Failures;
        if (FirstFailure.empty())
          FirstFailure = G.Name + ": " + V.toString() + "\n" +
                         verify::printGma(Machines[0]->context(), G);
        if (F.Verbose)
          std::fprintf(stderr, "FAIL %s: %s\n", G.Name.c_str(),
                       V.toString().c_str());
        if (F.ExpectDetect)
          break; // One detection is all the fault run needs.
        continue;
      }
      if (V.Status == verify::CrossStatus::Agree)
        ++Agreed;
      else if (V.Status == verify::CrossStatus::SkippedUncomputable)
        ++Uncomputable;
      else
        ++Exhausted;
      if (F.Verbose)
        std::fprintf(stderr, "ok   %s: %s\n", G.Name.c_str(),
                     V.toString().c_str());
    }
    double Seconds = T.seconds();

    std::printf("verify_cross_backend: seed=%llu gmas=%u machines=%zu "
                "agree=%u skipped-uncomputable=%u skipped-budget=%u "
                "failures=%u (%.1f GMA/s, %.1fs total)\n",
                (unsigned long long)F.Seed, F.Count, F.Machines.size(),
                Agreed, Uncomputable, Exhausted, Failures,
                F.Count / Seconds, Seconds);
    if (!FirstFailure.empty())
      std::printf("first failure:\n%s\n", FirstFailure.c_str());

    if (F.ExpectDetect) {
      if (Failures == 0) {
        std::printf(
            "expected the planted fault to be detected; it was not\n");
        return 1;
      }
      std::printf("planted fault detected as expected\n");
      return 0;
    }
    if (Agreed == 0) {
      // A run where every GMA skipped would pass vacuously; insist that
      // the stream exercised real cross-backend agreement.
      std::printf("no GMA reached cross-backend agreement; the run is "
                  "vacuous\n");
      return 1;
    }
    return Failures == 0 ? 0 : 1;
  }

  driver::Superoptimizer Opt;
  Opt.options().Search.MaxCycles = F.MaxCycles;
  Opt.options().Matching.MaxNodes = 8000;
  Opt.options().Matching.MaxRounds = 8;
  if (F.InjectLatencyBug)
    Opt.options().Universe.TestLatencyDelta = -2;

  verify::GmaGen Gen(Opt.context(), F.Seed);
  if (!F.DumpDir.empty()) {
    for (unsigned I = 0; I < F.Count; ++I) {
      gma::GMA G = Gen.next();
      std::string Path = F.DumpDir + "/" + G.Name + ".gma";
      std::FILE *Out = std::fopen(Path.c_str(), "w");
      if (!Out) {
        std::fprintf(stderr, "cannot write %s\n", Path.c_str());
        return 1;
      }
      std::fprintf(Out, "%s\n",
                   verify::printGma(Opt.context(), G).c_str());
      std::fclose(Out);
    }
    std::printf("wrote %u corpus GMAs to %s\n", F.Count, F.DumpDir.c_str());
    return 0;
  }
  verify::OracleOptions OOpts;
  OOpts.Trials = F.Trials;
  OOpts.InputSeed = F.Seed + 1;

  Timer T;
  unsigned Failures = 0, Compiled = 0, Exhausted = 0;
  std::string FirstFailure;
  for (unsigned I = 0; I < F.Count; ++I) {
    gma::GMA G = Gen.next();
    verify::OracleVerdict V;
    auto Err = verify::crossCheckReference(Opt, G, OOpts, &V);
    if (Err) {
      ++Failures;
      if (FirstFailure.empty())
        FirstFailure = *Err + "\n" + verify::printGma(Opt.context(), G);
      if (F.Verbose)
        std::fprintf(stderr, "FAIL %s\n", Err->c_str());
      if (F.ExpectDetect)
        break; // One detection is all the fault run needs.
      continue;
    }
    if (V.Status == verify::OracleStatus::Pass)
      ++Compiled;
    else
      ++Exhausted;
    if (F.Verbose)
      std::fprintf(stderr, "ok   %s: %s\n", G.Name.c_str(),
                   V.toString().c_str());
  }
  double Seconds = T.seconds();

  std::printf("verify_smoke: seed=%llu gmas=%u "
              "compiled=%u budget-exhausted=%u failures=%u "
              "(%.1f GMA/s, %.1fs total; ladder and per-K reference)\n",
              (unsigned long long)F.Seed, F.Count, Compiled, Exhausted,
              Failures, F.Count / Seconds, Seconds);
  if (!FirstFailure.empty())
    std::printf("first failure:\n%s\n", FirstFailure.c_str());

  if (F.ExpectDetect) {
    if (Failures == 0) {
      std::printf("expected the planted fault to be detected; it was not\n");
      return 1;
    }
    std::printf("planted fault detected as expected\n");
    return 0;
  }
  return Failures == 0 ? 0 : 1;
}
