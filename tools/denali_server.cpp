//===- tools/denali_server.cpp - Long-lived compile service ---------------===//
//
// denali_server: Denali as a service. Reads s-expr compile requests from
// stdin (or a corpus file in --bulk mode), answers each on one line, and
// keeps a canonical-GMA result cache across requests: a request is served
// from the cache or compiled cold.
//
//   denali_server [options]
//     --threads N        worker threads compiling requests concurrently
//                        (default 2)
//     --cache-bytes N    result-cache capacity; accepts k/m/g suffixes
//                        (default 64m). 0 disables all caching: every
//                        request runs the plain driver pipeline.
//     --bulk FILE        compile every request form in FILE (read as on
//                        stdin), grouping same-skeleton requests into one
//                        compile; prints one response line per form, in
//                        order
//     --print-programs   attach the emitted assembly to responses
//     --stats            print a (stats ...) summary line on exit
//     --max-cycles N     budget ceiling (default 16)
//     --min-cycles N     budget floor (default 1)
//     --match-budget N / --match-phases
//                        saturation scheduling knobs (as in `denali`)
//     --profile-ledger=FILE
//                        merge FILE (per-axiom saturation-profile JSONL)
//                        into the run and write the aggregate back on exit
//     --match-adaptive   seed per-axiom budgets and phases from ledger
//                        history (as in `denali`; runs that quiesce reach
//                        the identical closure)
//     --no-guard         drop guard-before-memory enforcement
//     --machine NAME     machine-model backend (alpha, rv64; default alpha)
//     --trace-out=FILE / --jsonl-out=FILE / --metrics-out=FILE /
//     --log-level=N      observability (server.cache.* / server.requests
//                        land in the metrics summary)
//
// Telemetry (always on unless --obs-off): every request gets a RequestId
// stamped on its spans, and live sliding-window latency histograms feed the
// (stats-full) verb.
//     --obs-off          disable always-on telemetry (overhead baselines)
//     --slow-ms MS       log + span-tree-dump requests slower than MS
//     --metrics-flush-sec S
//                        append a JSONL metrics snapshot every S seconds
//     --metrics-flush-out FILE
//                        snapshot destination (default denali_metrics.jsonl;
//                        rotates FILE -> FILE.1 -> FILE.2 past
//                        --metrics-flush-max-bytes)
//     --metrics-flush-max-bytes N
//                        rotation threshold (k/m/g suffixes; default 8m)
//     --stats-full       print the (stats-full ...) line on exit
//
// Protocol (stdin mode):
//   -> (gma <name> (assign t <term>) ... (guard t) (miss t) (assume ...))
//   -> (stats)
//   -> (stats-full)
//   -> (quit)
//   <- (ok <name> :cycles N :source cold|hit :seconds S [:program "..."])
//   <- (error "message")
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"
#include "server/Server.h"
#include "support/StringExtras.h"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

using namespace denali;

namespace {

/// Parses "64m", "512k", "2g", or a plain byte count.
bool parseBytes(const char *S, size_t &Out) {
  if (*S < '0' || *S > '9')
    return false; // strtoull would wrap "-1" to 2^64 - 1.
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno == ERANGE)
    return false;
  unsigned Shift = 0;
  switch (*End) {
  case '\0':
    break;
  case 'k':
  case 'K':
    Shift = 10;
    ++End;
    break;
  case 'm':
  case 'M':
    Shift = 20;
    ++End;
    break;
  case 'g':
  case 'G':
    Shift = 30;
    ++End;
    break;
  default:
    return false;
  }
  if (*End != '\0' || V > (SIZE_MAX >> Shift))
    return false;
  Out = static_cast<size_t>(V << Shift);
  return true;
}

/// Reports a bad flag value; usage errors exit 2.
int usageError(const char *Flag, const char *Value,
               const char *Expected = "a positive decimal integer") {
  std::fprintf(stderr, "error: %s takes %s, not '%s'\n", Flag, Expected,
               Value);
  return 2;
}

constexpr const char *DecimalOrZero = "a decimal integer (0 = off)";
constexpr const char *DecimalNumberOrZero = "a decimal number (0 = off)";

int runBulk(server::CompileServer &Server, const std::string &Path,
            bool PrintStats) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return 1;
  }
  std::vector<std::string> Texts;
  for (std::string Form; server::readForm(In, Form);)
    Texts.push_back(std::move(Form));
  int Failures = 0;
  for (const server::ServerResponse &R : Server.compileBulk(Texts)) {
    if (!R.Result.Error.empty())
      ++Failures;
    std::string Line =
        server::formatResponse(R, Server.options().PrintPrograms);
    std::printf("%s\n", Line.c_str());
  }
  if (PrintStats)
    std::printf("%s\n", Server.statsText().c_str());
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  server::ServerOptions SOpts;
  SOpts.Pipeline.Search.MaxCycles = 16;
  std::string BulkPath;
  bool PrintStats = false;
  bool PrintStatsFull = false;
  driver::Options &Opts = SOpts.Pipeline;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (const char *V = flagValue(Arg, "--threads", I, argc, argv)) {
      if (!parsePositiveDecimal(V, SOpts.Threads))
        return usageError("--threads", V);
    } else if (const char *V =
                   flagValue(Arg, "--cache-bytes", I, argc, argv)) {
      if (!parseBytes(V, SOpts.CacheBytes))
        return usageError("--cache-bytes", V, "a byte count");
    } else if (const char *V = flagValue(Arg, "--bulk", I, argc, argv)) {
      BulkPath = V;
    } else if (std::strcmp(Arg, "--print-programs") == 0) {
      SOpts.PrintPrograms = true;
    } else if (std::strcmp(Arg, "--stats") == 0) {
      PrintStats = true;
    } else if (const char *V =
                   flagValue(Arg, "--max-cycles", I, argc, argv)) {
      if (!parsePositiveDecimal(V, Opts.Search.MaxCycles))
        return usageError("--max-cycles", V);
    } else if (const char *V =
                   flagValue(Arg, "--min-cycles", I, argc, argv)) {
      if (!parsePositiveDecimal(V, Opts.Search.MinCycles))
        return usageError("--min-cycles", V);
    } else if (const char *V =
                   flagValue(Arg, "--match-budget", I, argc, argv)) {
      if (!parseDecimal(V, Opts.Matching.MatchBudget))
        return usageError("--match-budget", V,
                          "a decimal integer (0 = unlimited)");
    } else if (std::strcmp(Arg, "--match-phases") == 0) {
      Opts.Matching.Phased = true;
    } else if (const char *V =
                   flagValue(Arg, "--profile-ledger", I, argc, argv)) {
      Opts.ProfileLedgerPath = V;
    } else if (std::strcmp(Arg, "--match-adaptive") == 0) {
      Opts.MatchAdaptive = true;
    } else if (std::strcmp(Arg, "--no-guard") == 0) {
      Opts.EnforceGuard = false;
    } else if (const char *V = flagValue(Arg, "--machine", I, argc, argv)) {
      Opts.MachineName = V;
    } else if (std::strcmp(Arg, "--obs-off") == 0) {
      SOpts.Telemetry = false;
    } else if (const char *V = flagValue(Arg, "--slow-ms", I, argc, argv)) {
      if (!parseDecimalNumber(V, SOpts.SlowMs))
        return usageError("--slow-ms", V, DecimalNumberOrZero);
    } else if (const char *V =
                   flagValue(Arg, "--metrics-flush-sec", I, argc, argv)) {
      if (!parseDecimalNumber(V, SOpts.MetricsFlushSec))
        return usageError("--metrics-flush-sec", V, DecimalNumberOrZero);
    } else if (const char *V =
                   flagValue(Arg, "--metrics-flush-out", I, argc, argv)) {
      SOpts.MetricsFlushPath = V;
    } else if (const char *V = flagValue(Arg, "--metrics-flush-max-bytes", I,
                                         argc, argv)) {
      if (!parseBytes(V, SOpts.MetricsFlushMaxBytes))
        return usageError("--metrics-flush-max-bytes", V, "a byte count");
    } else if (std::strcmp(Arg, "--stats-full") == 0) {
      PrintStatsFull = true;
    } else if (const char *V = flagValue(Arg, "--trace-out", I, argc, argv)) {
      Opts.Obs.TraceOut = V;
    } else if (const char *V = flagValue(Arg, "--jsonl-out", I, argc, argv)) {
      Opts.Obs.JsonlOut = V;
    } else if (const char *V =
                   flagValue(Arg, "--metrics-out", I, argc, argv)) {
      Opts.Obs.MetricsOut = V;
    } else if (const char *V = flagValue(Arg, "--log-level", I, argc, argv)) {
      uint64_t Level = 0;
      if (!parseDecimal(V, Level) || Level > INT_MAX)
        return usageError("--log-level", V, DecimalOrZero);
      Opts.Obs.LogLevel = static_cast<int>(Level);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      return 2;
    }
  }
  Opts.Obs.Enabled = !Opts.Obs.TraceOut.empty() ||
                     !Opts.Obs.JsonlOut.empty() ||
                     !Opts.Obs.MetricsOut.empty() || Opts.Obs.LogLevel > 0;
  if (std::optional<std::string> Err =
          driver::checkMachineName(Opts.MachineName)) {
    std::fprintf(stderr, "error: %s\n", Err->c_str());
    return 2;
  }

  server::CompileServer Server(SOpts);

  int Rc;
  if (!BulkPath.empty()) {
    Rc = runBulk(Server, BulkPath, PrintStats);
  } else {
    int Failures = Server.serve(std::cin, std::cout);
    if (PrintStats)
      std::printf("%s\n", Server.statsText().c_str());
    Rc = Failures == 0 ? 0 : 1;
  }
  if (PrintStatsFull)
    std::printf("%s\n", Server.statsFullText().c_str());

  if (!Opts.ProfileLedgerPath.empty()) {
    std::string LedgerErr;
    if (!Server.opt().saveProfileLedger(&LedgerErr)) {
      std::fprintf(stderr, "error: cannot write profile ledger: %s\n",
                   LedgerErr.c_str());
      Rc = 1;
    }
  }
  if (Opts.Obs.Enabled && !obs::exportConfigured())
    Rc = 1;
  return Rc;
}
