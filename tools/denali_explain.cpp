//===- tools/denali_explain.cpp - Explanation & obs artifact tool ---------===//
//
// Post-processing for the pipeline's observability artifacts: one binary,
// `denali_explain`, with one subcommand per artifact kind.
//
//   denali_explain trace <trace.json> [--top N]
//     Reads a Chrome trace_event file and prints the top-N span names by
//     *self* time (span duration minus the duration of spans nested inside
//     it on the same thread), plus call counts and total time.
//
//   denali_explain metrics <metrics.txt> [--require name,name,...]
//     Parses the plain-text metrics summary; with --require, exits
//     nonzero unless every named counter is present with a nonzero value.
//     The perf_smoke CI step uses this to assert the pipeline's core
//     counters are actually being recorded.
//
//   denali_explain explain <explain.json> [--require-chains]
//     Summarizes a `denali --explain-out` document: per GMA, the
//     instruction count, how many instructions carry a derivation chain,
//     and the axioms used (with instance counts). With --require-chains,
//     exits nonzero unless every instruction either is a constant
//     materialization, is directly present in the specification, or has a
//     nonempty derivation chain — the golden-test invariant.
//
//   denali_explain profile <baseline> <current> [--tolerance PCT]
//                  [--min-us N] [--require name,...]
//     Regression diff of two captures of the same kind: two Chrome traces
//     (per-span self time per call) or two metrics summaries (per-histogram
//     avg/p50/p99 plus counter deltas). Exits nonzero when a time metric
//     exceeds baseline by both --tolerance percent and --min-us
//     microseconds, or a --require name is missing. perf_smoke gates
//     BENCH_server and BENCH_egraph_scale latency drift with it.
//
//   denali_explain egraph <egraph.json | metrics.txt>
//     Summarizes a `denali --egraph-json` dump: classes, nodes, constants,
//     and the largest classes by member count. Given a plain-text metrics
//     summary instead (`--metrics-out`, BENCH_*.metrics.txt), reports the
//     saturation scheduling work from the match.* / match.sched.* counters
//     — rounds, matches, merges, rebuild passes, budget backoff, matches
//     dropped as already queued — with per-round averages, so a scheduling
//     regression is diagnosable from a metrics file alone.
//
//   denali_explain rules <ledger.jsonl> [--top N]
//   denali_explain rules <baseline.jsonl> <current.jsonl> [--tolerance PCT]
//                  [--min-us N] [--top N]
//     Reports a `--profile-ledger` capture: per axiom (aggregated across
//     graph keys and averaged per run), self time, raw matches, asserted
//     instances, and yield per microsecond — top-N by self time. With two
//     ledgers, diffs per-run self time per axiom and exits nonzero when an
//     axiom regresses by both --tolerance percent and --min-us
//     microseconds (same gate as profile mode); yield/count changes are
//     reported but never gated.
//
// Every malformed input — missing, empty, truncated, or schema-less —
// produces a clear diagnostic and a nonzero exit; the failure-mode tests
// in tests/CMakeLists.txt pin each one.
//
//===----------------------------------------------------------------------===//

#include "obs/ProfileLedger.h"
#include "support/Json.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace denali;
namespace json = denali::support::json;

namespace {

/// Diagnostic prefix.
const char *Prog = "denali_explain";

bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "%s: cannot open '%s'\n", Prog, Path);
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  if (Out.empty()) {
    std::fprintf(stderr,
                 "%s: '%s' is empty — was the artifact ever written?\n",
                 Prog, Path);
    return false;
  }
  return true;
}

/// Reads and parses \p Path, with diagnostics for unreadable, empty, and
/// truncated/malformed files. \returns null on any failure.
std::unique_ptr<json::Value> readJson(const char *Path) {
  std::string Text;
  if (!readFile(Path, Text))
    return nullptr;
  std::string Err;
  std::unique_ptr<json::Value> Doc = json::parse(Text, &Err);
  if (!Doc)
    std::fprintf(stderr,
                 "%s: %s: invalid or truncated JSON: %s\n", Prog, Path,
                 Err.c_str());
  return Doc;
}

struct SpanRow {
  uint64_t Count = 0;
  double TotalUs = 0;
  double SelfUs = 0;
};

/// Loads \p Path as a Chrome trace and computes per-span-name rows (count,
/// total, self time). Self time = duration minus the duration of spans
/// nested inside it on the same thread, found by sweeping each thread's
/// spans in start order with an enclosing-span stack. Shared by the trace
/// and profile modes. \returns false with a diagnostic on any failure.
bool traceRows(const char *Path, std::map<std::string, SpanRow> &Rows,
               size_t &Total, size_t &Threads) {
  std::unique_ptr<json::Value> Doc = readJson(Path);
  if (!Doc)
    return false;
  const json::Value *Events = Doc->field("traceEvents");
  if (!Events || !Events->isArray()) {
    std::fprintf(stderr, "%s: %s: no traceEvents array\n", Prog, Path);
    return false;
  }

  // Complete ("X") events only, grouped per tid.
  struct Span {
    std::string Name;
    double Ts, Dur;
  };
  std::map<double, std::vector<Span>> PerTid;
  Total = 0;
  for (const json::Value &E : Events->array()) {
    const json::Value *Ph = E.field("ph");
    if (!Ph || !Ph->isString() || Ph->stringValue() != "X")
      continue;
    const json::Value *Name = E.field("name");
    const json::Value *Ts = E.field("ts");
    const json::Value *Dur = E.field("dur");
    const json::Value *Tid = E.field("tid");
    if (!Name || !Ts || !Dur)
      continue;
    PerTid[Tid ? Tid->numberValue() : 0].push_back(
        Span{Name->stringValue(), Ts->numberValue(), Dur->numberValue()});
    ++Total;
  }
  if (Total == 0) {
    std::fprintf(stderr, "%s: %s: contains no complete ('X') spans\n", Prog,
                 Path);
    return false;
  }

  for (auto &[Tid, Spans] : PerTid) {
    (void)Tid;
    std::sort(Spans.begin(), Spans.end(), [](const Span &A, const Span &B) {
      if (A.Ts != B.Ts)
        return A.Ts < B.Ts;
      return A.Dur > B.Dur; // Parents (longer) first at equal start.
    });
    std::vector<size_t> Stack; // Indices of enclosing spans.
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      while (!Stack.empty() &&
             Spans[Stack.back()].Ts + Spans[Stack.back()].Dur <= S.Ts)
        Stack.pop_back();
      SpanRow &R = Rows[S.Name];
      R.Count += 1;
      R.TotalUs += S.Dur;
      R.SelfUs += S.Dur;
      if (!Stack.empty())
        Rows[Spans[Stack.back()].Name].SelfUs -= S.Dur;
      Stack.push_back(I);
    }
  }
  Threads = PerTid.size();
  return true;
}

int traceReport(const char *Path, size_t TopN) {
  std::map<std::string, SpanRow> Rows;
  size_t Total = 0, Threads = 0;
  if (!traceRows(Path, Rows, Total, Threads))
    return 1;

  std::vector<std::pair<std::string, SpanRow>> Sorted(Rows.begin(),
                                                      Rows.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    return A.second.SelfUs > B.second.SelfUs;
  });
  std::printf("%zu spans across %zu threads; top %zu by self time:\n", Total,
              Threads, std::min(TopN, Sorted.size()));
  std::printf("%-24s %10s %14s %14s\n", "span", "count", "self(us)",
              "total(us)");
  for (size_t I = 0; I < Sorted.size() && I < TopN; ++I)
    std::printf("%-24s %10llu %14.1f %14.1f\n", Sorted[I].first.c_str(),
                static_cast<unsigned long long>(Sorted[I].second.Count),
                Sorted[I].second.SelfUs, Sorted[I].second.TotalUs);
  return 0;
}

/// One parsed hist/whist summary line.
struct HistRow {
  unsigned long long Count = 0, Sum = 0, Min = 0, Max = 0;
  unsigned long long P50 = 0, P90 = 0, P99 = 0;
  double Avg = 0;
};

/// A parsed plain-text metrics capture (`# denali metrics v1`). hist and
/// whist lines land in the same map (names never collide: whist names are
/// a distinct namespace by convention, e.g. server.win.*).
struct MetricsCapture {
  std::map<std::string, unsigned long long> Counters;
  std::map<std::string, long long> Gauges;
  std::map<std::string, HistRow> Hists;

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Hists.empty();
  }
  /// Presence-with-signal check used by --require: a nonzero counter, any
  /// gauge, or a histogram with at least one sample.
  bool hasNonzero(const std::string &Name) const {
    auto C = Counters.find(Name);
    if (C != Counters.end())
      return C->second != 0;
    if (Gauges.count(Name))
      return true;
    auto H = Hists.find(Name);
    return H != Hists.end() && H->second.Count != 0;
  }
};

bool parseMetricsCapture(const char *Path, const std::string &Text,
                         MetricsCapture &Out) {
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Kind, Name;
    if (!(Fields >> Kind >> Name)) {
      std::fprintf(stderr, "%s: %s:%u: malformed line\n", Prog, Path,
                   LineNo);
      return false;
    }
    if (Kind == "counter") {
      unsigned long long V = 0;
      if (!(Fields >> V)) {
        std::fprintf(stderr, "%s: %s:%u: counter without value\n", Prog,
                     Path, LineNo);
        return false;
      }
      Out.Counters[Name] = V;
    } else if (Kind == "gauge") {
      long long V = 0;
      Fields >> V;
      Out.Gauges[Name] = V;
    } else if (Kind == "hist" || Kind == "whist") {
      HistRow R;
      std::string Tok;
      while (Fields >> Tok) {
        size_t Eq = Tok.find('=');
        if (Eq == std::string::npos)
          continue;
        std::string Key = Tok.substr(0, Eq);
        const char *Val = Tok.c_str() + Eq + 1;
        if (Key == "count")
          R.Count = std::strtoull(Val, nullptr, 10);
        else if (Key == "sum")
          R.Sum = std::strtoull(Val, nullptr, 10);
        else if (Key == "min")
          R.Min = std::strtoull(Val, nullptr, 10);
        else if (Key == "max")
          R.Max = std::strtoull(Val, nullptr, 10);
        else if (Key == "avg")
          R.Avg = std::atof(Val);
        else if (Key == "p50")
          R.P50 = std::strtoull(Val, nullptr, 10);
        else if (Key == "p90")
          R.P90 = std::strtoull(Val, nullptr, 10);
        else if (Key == "p99")
          R.P99 = std::strtoull(Val, nullptr, 10);
      }
      Out.Hists[Name] = R;
    } else {
      std::fprintf(stderr, "%s: %s:%u: unknown metric kind '%s'\n", Prog,
                   Path, LineNo, Kind.c_str());
      return false;
    }
  }
  return true;
}

int metricsReport(const char *Path, const std::string &Require) {
  std::string Text;
  if (!readFile(Path, Text))
    return 1;
  MetricsCapture Cap;
  if (!parseMetricsCapture(Path, Text, Cap))
    return 1;
  if (Cap.empty()) {
    std::fprintf(stderr,
                 "%s: %s: no metrics found — was the obs layer enabled?\n",
                 Prog, Path);
    return 1;
  }
  std::printf("%zu counters, %zu gauges, %zu histograms\n",
              Cap.Counters.size(), Cap.Gauges.size(), Cap.Hists.size());
  bool Ok = true;
  for (const std::string &Name : splitString(Require, ",")) {
    if (!Cap.hasNonzero(Name)) {
      std::fprintf(stderr, "%s: required metric '%s' missing or zero\n",
                   Prog, Name.c_str());
      Ok = false;
      continue;
    }
    auto C = Cap.Counters.find(Name);
    if (C != Cap.Counters.end())
      std::printf("require %s = %llu ok\n", Name.c_str(), C->second);
    else
      std::printf("require %s ok\n", Name.c_str());
  }
  return Ok ? 0 : 1;
}

int explainReport(const char *Path, bool RequireChains) {
  std::unique_ptr<json::Value> Doc = readJson(Path);
  if (!Doc)
    return 1;
  const json::Value *Gmas = Doc->field("gmas");
  if (!Gmas || !Gmas->isArray() || Gmas->array().empty()) {
    std::fprintf(stderr,
                 "%s: %s: no gmas array (not an --explain-out document?)\n",
                 Prog, Path);
    return 1;
  }
  bool Ok = true;
  for (const json::Value &G : Gmas->array()) {
    const json::Value *Name = G.field("program");
    const json::Value *Instrs = G.field("instructions");
    if (!Name || !Instrs || !Instrs->isArray()) {
      std::fprintf(stderr, "%s: %s: gma without program/instructions\n",
                   Prog, Path);
      return 1;
    }
    size_t Chained = 0, Direct = 0, Ldiq = 0, Bare = 0;
    std::map<std::string, size_t> AxiomUses;
    for (const json::Value &I : Instrs->array()) {
      const json::Value *Chain = I.field("chain");
      const json::Value *IsLdiq = I.field("ldiq");
      const json::Value *InSpec = I.field("directly_in_spec");
      size_t Steps = Chain && Chain->isArray() ? Chain->array().size() : 0;
      if (Steps) {
        ++Chained;
        for (const json::Value &S : Chain->array())
          if (const json::Value *Ax = S.field("axiom"))
            ++AxiomUses[Ax->stringValue()];
      } else if (IsLdiq && IsLdiq->isBool() && IsLdiq->boolValue()) {
        ++Ldiq;
      } else if (InSpec && InSpec->isBool() && InSpec->boolValue()) {
        ++Direct;
      } else {
        ++Bare;
        if (RequireChains) {
          const json::Value *Mn = I.field("mnemonic");
          std::fprintf(stderr,
                       "%s: %s: %s: instruction '%s' has no derivation "
                       "chain\n",
                       Prog, Path, Name->stringValue().c_str(),
                       Mn ? Mn->stringValue().c_str() : "?");
          Ok = false;
        }
      }
    }
    std::printf("%s: %zu instruction(s): %zu derived, %zu direct, "
                "%zu ldiq, %zu unexplained\n",
                Name->stringValue().c_str(), Instrs->array().size(), Chained,
                Direct, Ldiq, Bare);
    for (const auto &[Ax, N] : AxiomUses)
      std::printf("  axiom %-24s x%zu\n", Ax.c_str(), N);
  }
  return Ok ? 0 : 1;
}

/// The metrics-summary arm of `egraph` mode: a per-saturation scheduling
/// report from the match.* / match.sched.* counters. Counters aggregate
/// over every saturation in the file (one per GMA), so the per-round
/// averages are the diagnosable signal: e.g. merges-per-round collapsing
/// while matches-per-round holds means rebuild batching regressed.
int egraphMetricsReport(const char *Path, const std::string &Text) {
  std::map<std::string, unsigned long long> Counters;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Kind, Name;
    unsigned long long V = 0;
    if ((Fields >> Kind >> Name) && Kind == "counter" && (Fields >> V))
      Counters[Name] = V;
  }
  auto C = [&](const char *Name) -> unsigned long long {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  };
  unsigned long long Rounds = C("match.rounds");
  if (Rounds == 0) {
    std::fprintf(stderr,
                 "%s: %s: neither an --egraph-json document nor a metrics "
                 "summary with a match.rounds counter\n",
                 Prog, Path);
    return 1;
  }
  auto PerRound = [&](unsigned long long V) {
    return static_cast<double>(V) / static_cast<double>(Rounds);
  };
  auto Row = [&](const char *Label, unsigned long long V) {
    std::printf("  %-22s %12llu  (%.1f/round)\n", Label, V, PerRound(V));
  };
  std::printf("saturation scheduling (%llu round(s) total):\n", Rounds);
  Row("matches found", C("match.matches"));
  Row("instances asserted", C("match.instances_asserted"));
  Row("instances deduped", C("match.instances_deduped"));
  Row("merges", C("match.sched.merges"));
  Row("  congruence merges", C("match.sched.congruence_merges"));
  Row("  constant folds", C("match.sched.constant_folds"));
  Row("rebuild passes", C("match.sched.rebuilds"));
  std::printf("scheduler decisions:\n");
  std::printf("  %-22s %12llu\n", "budget overflows",
              C("match.sched.budget_overflows"));
  std::printf("  %-22s %12llu\n", "budget skips",
              C("match.sched.budget_skips"));
  std::printf("  %-22s %12llu\n", "phase advances",
              C("match.sched.phase_advances"));
  return 0;
}

int egraphReport(const char *Path) {
  std::string Text;
  if (!readFile(Path, Text))
    return 1;
  std::string Err;
  std::unique_ptr<json::Value> Doc = json::parse(Text, &Err);
  // Not JSON at all: fall through to the metrics-summary report.
  if (!Doc)
    return egraphMetricsReport(Path, Text);
  const json::Value *Dump = Doc->field("dump");
  if (!Dump || !Dump->isArray()) {
    std::fprintf(stderr,
                 "%s: %s: no dump array (not an --egraph-json document?)\n",
                 Prog, Path);
    return 1;
  }
  size_t Nodes = 0, Constants = 0;
  std::vector<std::pair<size_t, double>> Sizes; // (members, class id)
  for (const json::Value &C : Dump->array()) {
    const json::Value *Members = C.field("nodes");
    size_t N = Members && Members->isArray() ? Members->array().size() : 0;
    Nodes += N;
    if (C.field("constant"))
      ++Constants;
    const json::Value *Id = C.field("class");
    Sizes.push_back({N, Id ? Id->numberValue() : -1});
  }
  std::sort(Sizes.rbegin(), Sizes.rend());
  std::printf("%zu classes, %zu nodes, %zu constant classes\n",
              Dump->array().size(), Nodes, Constants);
  for (size_t I = 0; I < Sizes.size() && I < 5; ++I)
    std::printf("  c%.0f: %zu node(s)\n", Sizes[I].second, Sizes[I].first);
  return 0;
}

/// A trace capture starts with a JSON object; a metrics capture starts
/// with the `# denali metrics` header (or a bare metric line).
bool looksLikeTrace(const std::string &Text) {
  size_t I = Text.find_first_not_of(" \t\r\n");
  return I != std::string::npos && Text[I] == '{';
}

/// The regression-diff mode: loads two captures of the same kind — two
/// Chrome traces or two plain-text metrics summaries — and compares
/// per-stage times. Trace
/// captures compare per-span-name *self time per call*; metrics captures
/// compare each shared histogram's avg/p50/p99 (µs for the span.* and
/// server.win.* families). A metric regresses when the current value
/// exceeds baseline by more than \p TolerancePct percent AND by more than
/// \p MinUs microseconds (the absolute floor keeps sub-µs jitter on cheap
/// stages from tripping percentage gates). Counter deltas are reported but
/// never gated — counts legitimately differ across runs. \returns nonzero
/// when any metric regressed or a --require name is absent from either
/// capture.
int profileReport(const char *BasePath, const char *CurPath,
                  double TolerancePct, double MinUs,
                  const std::string &Require, size_t TopN) {
  std::string BaseText, CurText;
  if (!readFile(BasePath, BaseText) || !readFile(CurPath, CurText))
    return 1;
  const bool IsTrace = looksLikeTrace(BaseText);
  if (IsTrace != looksLikeTrace(CurText)) {
    std::fprintf(stderr,
                 "%s: cannot diff a trace against a metrics summary "
                 "('%s' vs '%s')\n",
                 Prog, BasePath, CurPath);
    return 1;
  }

  struct Row {
    std::string Name;
    double Base, Cur;
  };
  std::vector<Row> Rows;
  std::vector<std::string> Missing;

  if (IsTrace) {
    std::map<std::string, SpanRow> B, C;
    size_t Total = 0, Threads = 0;
    if (!traceRows(BasePath, B, Total, Threads) ||
        !traceRows(CurPath, C, Total, Threads))
      return 1;
    for (const auto &[Name, BR] : B) {
      auto It = C.find(Name);
      if (It == C.end() || BR.Count == 0 || It->second.Count == 0)
        continue;
      Rows.push_back({Name + " self/call",
                      BR.SelfUs / static_cast<double>(BR.Count),
                      It->second.SelfUs /
                          static_cast<double>(It->second.Count)});
    }
    for (const std::string &Name : splitString(Require, ","))
      if (!B.count(Name) || !C.count(Name))
        Missing.push_back(Name);
  } else {
    MetricsCapture B, C;
    if (!parseMetricsCapture(BasePath, BaseText, B) ||
        !parseMetricsCapture(CurPath, CurText, C))
      return 1;
    if (B.empty() || C.empty()) {
      std::fprintf(stderr, "%s: empty metrics capture\n", Prog);
      return 1;
    }
    for (const auto &[Name, BH] : B.Hists) {
      auto It = C.Hists.find(Name);
      if (It == C.Hists.end() || BH.Count == 0 || It->second.Count == 0)
        continue;
      const HistRow &CH = It->second;
      Rows.push_back({Name + " avg", BH.Avg, CH.Avg});
      Rows.push_back({Name + " p50", static_cast<double>(BH.P50),
                      static_cast<double>(CH.P50)});
      Rows.push_back({Name + " p99", static_cast<double>(BH.P99),
                      static_cast<double>(CH.P99)});
    }
    // Counter deltas: context for a human reading the diff, never a gate.
    std::vector<std::pair<double, std::string>> CounterDeltas;
    for (const auto &[Name, BV] : B.Counters) {
      auto It = C.Counters.find(Name);
      if (It == C.Counters.end() || BV == 0)
        continue;
      double Pct = (static_cast<double>(It->second) -
                    static_cast<double>(BV)) /
                   static_cast<double>(BV) * 100.0;
      if (Pct != 0)
        CounterDeltas.push_back({std::abs(Pct), strFormat(
            "  counter %-40s %12llu -> %12llu (%+.1f%%)", Name.c_str(), BV,
            It->second, Pct)});
    }
    std::sort(CounterDeltas.rbegin(), CounterDeltas.rend());
    if (!CounterDeltas.empty()) {
      std::printf("counter deltas (top %zu of %zu changed, not gated):\n",
                  std::min(TopN, CounterDeltas.size()), CounterDeltas.size());
      for (size_t I = 0; I < CounterDeltas.size() && I < TopN; ++I)
        std::printf("%s\n", CounterDeltas[I].second.c_str());
    }
    for (const std::string &Name : splitString(Require, ","))
      if (!B.hasNonzero(Name) || !C.hasNonzero(Name))
        Missing.push_back(Name);
  }

  if (Rows.empty() && Missing.empty()) {
    std::fprintf(stderr,
                 "%s: no comparable time metrics shared by '%s' and '%s'\n",
                 Prog, BasePath, CurPath);
    return 1;
  }

  size_t Regressions = 0;
  std::vector<std::pair<double, std::string>> Printed;
  for (const Row &R : Rows) {
    double DeltaUs = R.Cur - R.Base;
    double Pct = R.Base > 0 ? DeltaUs / R.Base * 100.0
                            : (R.Cur > 0 ? 1e9 : 0.0);
    bool Reg = R.Cur > R.Base * (1.0 + TolerancePct / 100.0) &&
               DeltaUs > MinUs;
    if (Reg)
      ++Regressions;
    Printed.push_back(
        {std::abs(DeltaUs),
         strFormat("  %-44s %12.1f %12.1f %+10.1f%%%s", R.Name.c_str(),
                   R.Base, R.Cur, Pct, Reg ? "  REGRESSED" : "")});
  }
  std::sort(Printed.rbegin(), Printed.rend());
  std::printf("%zu time metric(s) compared (tolerance %.0f%%, floor %.0fus); "
              "top %zu by |delta|:\n",
              Rows.size(), TolerancePct, MinUs,
              std::min(TopN, Printed.size()));
  std::printf("  %-44s %12s %12s %11s\n", "metric", "base(us)", "cur(us)",
              "delta");
  for (size_t I = 0; I < Printed.size() && I < TopN; ++I)
    std::printf("%s\n", Printed[I].second.c_str());

  for (const std::string &Name : Missing)
    std::fprintf(stderr, "%s: required metric '%s' missing from a capture\n",
                 Prog, Name.c_str());
  if (Regressions || !Missing.empty()) {
    std::fprintf(stderr, "%s: %zu regression(s), %zu missing requirement(s)\n",
                 Prog, Regressions, Missing.size());
    return 1;
  }
  std::printf("no regressions\n");
  return 0;
}

/// One axiom's ledger rows aggregated across graph keys, normalized per
/// saturation run (Runs differs per key, so totals alone would weight a
/// frequently-run fingerprint over an expensive one).
struct RuleRow {
  double SelfUs = 0; ///< (MatchNs + InstantiateNs) / Runs, in µs.
  double Raw = 0, Instances = 0, Merges = 0, Skips = 0;
  uint64_t Runs = 0; ///< Max Runs over the axiom's keys.
  double yieldPerUs() const {
    return SelfUs > 0 ? Instances / SelfUs : 0.0;
  }
};

/// Loads \p Path as a profile ledger and aggregates per axiom id. The
/// tool is stricter than ProfileLedger::load: a missing or empty file is
/// an error (there is nothing to report), not a cold start.
bool ruleRows(const char *Path, std::map<std::string, RuleRow> &Rows,
              size_t &Keys) {
  std::string Text;
  if (!readFile(Path, Text))
    return false;
  obs::ProfileLedger Ledger;
  std::string Err;
  if (!Ledger.loadText(Text, &Err)) {
    std::fprintf(stderr, "%s: %s: %s\n", Prog, Path, Err.c_str());
    return false;
  }
  if (Ledger.size() == 0) {
    std::fprintf(stderr,
                 "%s: %s: no ledger rows (not a --profile-ledger file?)\n",
                 Prog, Path);
    return false;
  }
  std::map<std::string, bool> SeenKeys;
  for (const auto &[Key, Id, P] : Ledger.rows()) {
    SeenKeys[Key] = true;
    RuleRow &R = Rows[Id];
    double Runs = P.Runs ? static_cast<double>(P.Runs) : 1.0;
    R.SelfUs += static_cast<double>(P.MatchNs + P.InstantiateNs) / 1000.0 /
                Runs;
    R.Raw += static_cast<double>(P.Raw) / Runs;
    R.Instances += static_cast<double>(P.Instances) / Runs;
    R.Merges += static_cast<double>(P.Merges) / Runs;
    R.Skips += static_cast<double>(P.Skips) / Runs;
    R.Runs = std::max(R.Runs, P.Runs);
  }
  Keys = SeenKeys.size();
  return true;
}

/// Single-ledger report: top axioms by per-run self time.
int rulesReport(const char *Path, size_t TopN) {
  std::map<std::string, RuleRow> Rows;
  size_t Keys = 0;
  if (!ruleRows(Path, Rows, Keys))
    return 1;
  std::vector<std::pair<std::string, RuleRow>> Sorted(Rows.begin(),
                                                      Rows.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    if (A.second.SelfUs != B.second.SelfUs)
      return A.second.SelfUs > B.second.SelfUs;
    return A.first < B.first;
  });
  size_t Unproductive = 0;
  for (const auto &[Id, R] : Rows)
    if (R.Instances == 0 && R.Merges == 0)
      ++Unproductive;
  std::printf("%zu axiom(s) across %zu graph key(s), %zu never productive; "
              "top %zu by self time per run:\n",
              Rows.size(), Keys, Unproductive,
              std::min(TopN, Sorted.size()));
  std::printf("  %-28s %10s %10s %10s %10s\n", "axiom", "self(us)", "raw",
              "instances", "yield/us");
  for (size_t I = 0; I < Sorted.size() && I < TopN; ++I) {
    const RuleRow &R = Sorted[I].second;
    std::printf("  %-28s %10.1f %10.1f %10.1f %10.3f\n",
                Sorted[I].first.c_str(), R.SelfUs, R.Raw, R.Instances,
                R.yieldPerUs());
  }
  return 0;
}

/// Two-ledger regression diff: per-run self time per axiom, gated exactly
/// like profile mode (percent AND absolute floor). Axioms present in only
/// one capture are reported but never gated — rule sets legitimately
/// change between versions.
int rulesDiffReport(const char *BasePath, const char *CurPath,
                    double TolerancePct, double MinUs, size_t TopN) {
  std::map<std::string, RuleRow> B, C;
  size_t Keys = 0;
  if (!ruleRows(BasePath, B, Keys) || !ruleRows(CurPath, C, Keys))
    return 1;

  size_t Regressions = 0, Compared = 0, Unshared = 0;
  std::vector<std::pair<double, std::string>> Printed;
  for (const auto &[Id, BR] : B) {
    auto It = C.find(Id);
    if (It == C.end()) {
      ++Unshared;
      continue;
    }
    const RuleRow &CR = It->second;
    ++Compared;
    double DeltaUs = CR.SelfUs - BR.SelfUs;
    double Pct = BR.SelfUs > 0 ? DeltaUs / BR.SelfUs * 100.0
                               : (CR.SelfUs > 0 ? 1e9 : 0.0);
    bool Reg = CR.SelfUs > BR.SelfUs * (1.0 + TolerancePct / 100.0) &&
               DeltaUs > MinUs;
    if (Reg)
      ++Regressions;
    Printed.push_back(
        {std::abs(DeltaUs),
         strFormat("  %-28s %10.1f %10.1f %+9.1f%%  yield %.3f -> %.3f%s",
                   Id.c_str(), BR.SelfUs, CR.SelfUs, Pct, BR.yieldPerUs(),
                   CR.yieldPerUs(), Reg ? "  REGRESSED" : "")});
  }
  for (const auto &[Id, CR] : C)
    if (!B.count(Id))
      ++Unshared;
  if (Compared == 0) {
    std::fprintf(stderr, "%s: no axiom shared by '%s' and '%s'\n", Prog,
                 BasePath, CurPath);
    return 1;
  }
  std::sort(Printed.rbegin(), Printed.rend());
  std::printf("%zu axiom(s) compared, %zu unshared (tolerance %.0f%%, "
              "floor %.0fus); top %zu by |delta self time|:\n",
              Compared, Unshared, TolerancePct, MinUs,
              std::min(TopN, Printed.size()));
  std::printf("  %-28s %10s %10s %10s\n", "axiom", "base(us)", "cur(us)",
              "delta");
  for (size_t I = 0; I < Printed.size() && I < TopN; ++I)
    std::printf("%s\n", Printed[I].second.c_str());
  if (Regressions) {
    std::fprintf(stderr, "%s: %zu axiom regression(s)\n", Prog, Regressions);
    return 1;
  }
  std::printf("no regressions\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  const char *Mode = argc > 1 ? argv[1] : nullptr;
  const char *Path = argc > 2 ? argv[2] : nullptr;
  const bool IsProfile = Mode && !std::strcmp(Mode, "profile");
  // rules takes an optional second ledger (diff form).
  const bool IsRules = Mode && !std::strcmp(Mode, "rules");
  const char *Path2 = nullptr;
  if (IsProfile && argc > 3)
    Path2 = argv[3];
  else if (IsRules && argc > 3 && argv[3][0] != '-')
    Path2 = argv[3];
  size_t TopN = 10;
  std::string Require;
  bool RequireChains = false;
  double TolerancePct = 10;
  double MinUs = 50;
  for (int I = Path2 ? 4 : 3; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--top") && I + 1 < argc)
      TopN = static_cast<size_t>(std::atoll(argv[++I]));
    else if (!std::strcmp(argv[I], "--require") && I + 1 < argc)
      Require = argv[++I];
    else if (!std::strcmp(argv[I], "--require-chains"))
      RequireChains = true;
    else if (!std::strcmp(argv[I], "--tolerance") && I + 1 < argc)
      TolerancePct = std::atof(argv[++I]);
    else if (!std::strcmp(argv[I], "--min-us") && I + 1 < argc)
      MinUs = std::atof(argv[++I]);
    else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", Prog, argv[I]);
      return 2;
    }
  }
  if (Mode && Path && !std::strcmp(Mode, "trace"))
    return traceReport(Path, TopN);
  if (Mode && Path && !std::strcmp(Mode, "metrics"))
    return metricsReport(Path, Require);
  if (Mode && Path && !std::strcmp(Mode, "explain"))
    return explainReport(Path, RequireChains);
  if (Mode && Path && !std::strcmp(Mode, "egraph"))
    return egraphReport(Path);
  if (IsProfile && Path && Path2)
    return profileReport(Path, Path2, TolerancePct, MinUs, Require, TopN);
  if (IsRules && Path && Path2)
    return rulesDiffReport(Path, Path2, TolerancePct, MinUs, TopN);
  if (IsRules && Path)
    return rulesReport(Path, TopN);
  std::fprintf(stderr,
               "usage: %s trace <trace.json> [--top N]\n"
               "       %s metrics <metrics.txt> [--require name,name,...]\n"
               "       %s explain <explain.json> [--require-chains]\n"
               "       %s egraph <egraph.json | metrics.txt>\n"
               "       %s profile <baseline> <current> [--tolerance PCT]\n"
               "               [--min-us N] [--require name,...] [--top N]\n"
               "         (captures: two trace.json or two metrics.txt)\n"
               "       %s rules <ledger.jsonl> [<current.jsonl>]\n"
               "               [--tolerance PCT] [--min-us N] [--top N]\n",
               Prog, Prog, Prog, Prog, Prog, Prog);
  return 2;
}
