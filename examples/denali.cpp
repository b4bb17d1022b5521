//===- examples/denali.cpp - Command-line driver --------------------------===//
//
// The denali tool: compiles a Denali source file (the paper's LISP-like
// input syntax, Figure 6) to annotated EV6 assembly on stdout.
//
//   denali [options] file.dnl
//     --machine NAME     target machine backend: alpha (default) or rv64
//     --max-cycles N     budget ceiling (default 16)
//     --match-budget N   per-axiom, per-round raw-match budget; an axiom
//                        that overflows sits out a round and returns with
//                        double the budget (0 = unlimited, the default)
//     --match-phases     phase the rule set: expansive axioms wait until
//                        the cheap simplification axioms quiesce
//     --profile-ledger=FILE
//                        merge FILE (per-axiom saturation-profile JSONL)
//                        into the run and write the aggregate back on exit
//     --match-adaptive   seed per-axiom budgets and phases from ledger
//                        history (yield-per-microsecond ordering) instead
//                        of uniform budgets + blind doubling; runs that
//                        quiesce reach the identical closure
//     --show-nops        print nops in unfilled issue slots (Figure 4 style)
//     --no-verify        skip differential verification
//     --stats            print matcher/SAT statistics per GMA
//     --dump-cnf DIR     write each probe's CNF in DIMACS format
//     --explain-out=FILE write per-instruction derivation-chain
//                        explanations (axiom ids + substitutions) as JSON,
//                        and print the annotated listing on stdout
//     --egraph-dot=FILE  write the quiescent e-graph as Graphviz DOT
//     --egraph-json=FILE write the quiescent e-graph as JSON
//     --why-unsat        report which constraint families refute the
//                        budget one below the minimal feasible one
//     --trace-out=FILE   write a Chrome trace_event JSON of the run
//                        (load in chrome://tracing or Perfetto)
//     --jsonl-out=FILE   write the trace events as JSONL
//     --metrics-out=FILE write the plain-text metrics summary
//     --log-level=N      leveled pipeline diagnostics on stderr
//                        (1 = per-GMA, 2 = per-round/per-probe)
//
//===----------------------------------------------------------------------===//

#include "driver/Superoptimizer.h"
#include "support/StringExtras.h"

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace denali;

int main(int argc, char **argv) {
  const char *Path = nullptr;
  bool ShowNops = false, Verify = true, Stats = false;
  std::string ExplainOut, EGraphDotOut, EGraphJsonOut;
  driver::Options Opts;
  Opts.Search.MaxCycles = 16;

  for (int I = 1; I < argc; ++I) {
    if (const char *V = flagValue(argv[I], "--trace-out", I, argc, argv)) {
      Opts.Obs.TraceOut = V;
    } else if (const char *V =
                   flagValue(argv[I], "--jsonl-out", I, argc, argv)) {
      Opts.Obs.JsonlOut = V;
    } else if (const char *V =
                   flagValue(argv[I], "--metrics-out", I, argc, argv)) {
      Opts.Obs.MetricsOut = V;
    } else if (const char *V =
                   flagValue(argv[I], "--log-level", I, argc, argv)) {
      uint64_t Level = 0;
      if (!parseDecimal(V, Level) || Level > INT_MAX) {
        std::fprintf(stderr,
                     "--log-level takes a decimal integer (0 = off), not "
                     "'%s'\n",
                     V);
        return 2;
      }
      Opts.Obs.LogLevel = static_cast<int>(Level);
    } else if (const char *V =
                   flagValue(argv[I], "--machine", I, argc, argv)) {
      Opts.MachineName = V;
    } else if (const char *V =
                   flagValue(argv[I], "--max-cycles", I, argc, argv)) {
      if (!parsePositiveDecimal(V, Opts.Search.MaxCycles)) {
        std::fprintf(stderr,
                     "--max-cycles takes a positive decimal integer, not "
                     "'%s'\n",
                     V);
        return 2;
      }
    } else if (const char *V =
                   flagValue(argv[I], "--match-budget", I, argc, argv)) {
      if (!parseDecimal(V, Opts.Matching.MatchBudget)) {
        std::fprintf(stderr,
                     "--match-budget takes a decimal integer (0 = "
                     "unlimited), not '%s'\n",
                     V);
        return 2;
      }
    } else if (!std::strcmp(argv[I], "--match-phases")) {
      Opts.Matching.Phased = true;
    } else if (const char *V =
                   flagValue(argv[I], "--profile-ledger", I, argc, argv)) {
      Opts.ProfileLedgerPath = V;
    } else if (!std::strcmp(argv[I], "--match-adaptive")) {
      Opts.MatchAdaptive = true;
    } else if (!std::strcmp(argv[I], "--show-nops")) {
      ShowNops = true;
    } else if (!std::strcmp(argv[I], "--no-verify")) {
      Verify = false;
    } else if (!std::strcmp(argv[I], "--stats")) {
      Stats = true;
    } else if (!std::strcmp(argv[I], "--dump-cnf") && I + 1 < argc) {
      Opts.Search.DumpCnfDir = argv[++I];
    } else if (const char *V =
                   flagValue(argv[I], "--explain-out", I, argc, argv)) {
      ExplainOut = V;
      Opts.Explain = true;
    } else if (const char *V =
                   flagValue(argv[I], "--egraph-dot", I, argc, argv)) {
      EGraphDotOut = V;
      Opts.EGraphDump = true;
    } else if (const char *V =
                   flagValue(argv[I], "--egraph-json", I, argc, argv)) {
      EGraphJsonOut = V;
      Opts.EGraphDump = true;
    } else if (!std::strcmp(argv[I], "--why-unsat")) {
      Opts.WhyUnsat = true;
    } else if (argv[I][0] != '-') {
      Path = argv[I];
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[I]);
      return 2;
    }
  }
  if (!Path) {
    std::fprintf(stderr,
                 "usage: denali [--machine NAME] [--max-cycles N] "
                 "[--match-budget N] [--match-phases] "
                 "[--profile-ledger=FILE] [--match-adaptive] [--show-nops] "
                 "[--no-verify] [--stats] [--dump-cnf DIR] "
                 "[--explain-out=FILE] [--egraph-dot=FILE] "
                 "[--egraph-json=FILE] [--why-unsat] "
                 "[--trace-out=FILE] [--jsonl-out=FILE] [--metrics-out=FILE] "
                 "[--log-level=N] file.dnl\n");
    return 2;
  }
  // Any observability output (or a log level) switches the layer on.
  Opts.Obs.Enabled = !Opts.Obs.TraceOut.empty() ||
                     !Opts.Obs.JsonlOut.empty() ||
                     !Opts.Obs.MetricsOut.empty() || Opts.Obs.LogLevel > 0;

  // Validate the backend name up front: a typo should be a clean usage
  // error, not the library's fatal abort.
  if (std::optional<std::string> Err =
          driver::checkMachineName(Opts.MachineName)) {
    std::fprintf(stderr, "%s\n", Err->c_str());
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot open '%s'\n", Path);
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  driver::Superoptimizer Opt(Opts);
  driver::CompileResult R = Opt.compileSource(Buf.str());
  if (!R.ok()) {
    std::fprintf(stderr, "%s: %s\n", Path, R.Error.c_str());
    return 1;
  }
  bool AllOk = true;
  std::string ExplainJson = "{\"gmas\": [\n";
  std::string EGraphDot, EGraphJson;
  bool FirstExplained = true;
  for (driver::GmaResult &G : R.Gmas) {
    EGraphDot += G.EGraphDotText;
    EGraphJson += G.EGraphJsonText;
    if (!G.ok()) {
      std::fprintf(stderr, "%s: %s: %s\n", Path, G.Gma.Name.c_str(),
                   G.Error.c_str());
      AllOk = false;
      continue;
    }
    if (Stats) {
      std::printf("; %s: match %.2fs (%u rounds, %zu nodes); "
                  "max live regs %u; budgets:",
                  G.Gma.Name.c_str(), G.MatchSeconds, G.Matching.Rounds,
                  G.Matching.FinalNodes,
                  machine::maxLiveRegisters(G.Search.Program));
      for (const codegen::Probe &P : G.Search.Probes)
        std::printf(" %s", codegen::describeProbe(P).c_str());
      std::printf("\n");
    }
    if (Opts.WhyUnsat && !G.WhyUnsatText.empty())
      std::printf("; %s\n", G.WhyUnsatText.c_str());
    if (Opts.Explain) {
      std::printf("%s\n", G.ExplanationListing.c_str());
      ExplainJson += FirstExplained ? "" : ",\n";
      ExplainJson += G.ExplanationJson;
      FirstExplained = false;
    } else {
      std::printf("%s\n", G.Search.Program.toString(ShowNops).c_str());
    }
    if (Verify) {
      if (auto Err = Opt.verify(G)) {
        std::fprintf(stderr, "%s: %s: verification FAILED: %s\n", Path,
                     G.Gma.Name.c_str(), Err->c_str());
        AllOk = false;
      }
    }
  }
  ExplainJson += "\n]}\n";
  auto writeText = [&](const std::string &File, const std::string &Text,
                       const char *What) {
    if (File.empty())
      return;
    std::ofstream Out(File);
    if (!Out) {
      std::fprintf(stderr, "cannot write %s to '%s'\n", What, File.c_str());
      AllOk = false;
      return;
    }
    Out << Text;
    std::fprintf(stderr, "%s written to %s\n", What, File.c_str());
  };
  writeText(ExplainOut, ExplainJson, "explanation");
  writeText(EGraphDotOut, EGraphDot, "e-graph DOT");
  writeText(EGraphJsonOut, EGraphJson, "e-graph JSON");
  if (!Opts.ProfileLedgerPath.empty()) {
    std::string LedgerErr;
    if (!Opt.saveProfileLedger(&LedgerErr)) {
      std::fprintf(stderr, "cannot write profile ledger: %s\n",
                   LedgerErr.c_str());
      AllOk = false;
    } else {
      std::fprintf(stderr, "profile ledger written to %s\n",
                   Opts.ProfileLedgerPath.c_str());
    }
  }
  if (Opts.Obs.Enabled) {
    if (!obs::exportConfigured())
      AllOk = false;
    if (!Opts.Obs.TraceOut.empty())
      std::fprintf(stderr, "trace written to %s\n",
                   Opts.Obs.TraceOut.c_str());
    if (!Opts.Obs.MetricsOut.empty())
      std::fprintf(stderr, "metrics written to %s\n",
                   Opts.Obs.MetricsOut.c_str());
  }
  return AllOk ? 0 : 1;
}
