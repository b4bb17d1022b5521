//===- server/Server.cpp --------------------------------------------------===//

#include "server/Server.h"

#include "support/StringExtras.h"
#include "support/Timer.h"
#include "verify/GmaText.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <istream>
#include <map>
#include <ostream>
#include <unordered_map>

using namespace denali;
using namespace denali::server;

const char *denali::server::resultSourceName(ResultSource S) {
  switch (S) {
  case ResultSource::Cold:
    return "cold";
  case ResultSource::WarmGraph:
    return "warm";
  case ResultSource::CacheHit:
    return "hit";
  }
  return "?";
}

namespace {

/// Rough live size of a cached result, for the --cache-bytes budget. An
/// estimate is fine: the cap bounds memory order-of-magnitude, it is not
/// an allocator.
size_t approxResultBytes(const driver::GmaResult &R, const CanonicalGma &C) {
  size_t B = sizeof(driver::GmaResult) + C.Text.size();
  B += R.Search.Program.Instrs.size() * 64;
  B += R.Search.Probes.size() * 128;
  B += R.ExplanationJson.size() + R.ExplanationListing.size() +
       R.EGraphDotText.size() + R.EGraphJsonText.size() +
       R.WhyUnsatText.size() + R.Error.size();
  for (const auto &[Orig, Canon] : C.VarMap)
    B += Orig.size() + Canon.size() + 16;
  return B;
}

} // namespace

driver::GmaResult denali::server::renameResult(const driver::GmaResult &Cached,
                                               const CanonicalGma &From,
                                               const gma::GMA &To,
                                               const CanonicalGma &ToCanon) {
  driver::GmaResult R = Cached;
  R.Gma = To;
  // Exact duplicate (same variable names, targets, and source name): the
  // cached result is already in the request's name space — serve it
  // verbatim. This is the bit-identical path the bench gate checks.
  if (From.VarMap == ToCanon.VarMap && From.Targets == ToCanon.Targets &&
      From.Name == ToCanon.Name)
    return R;

  // Alpha-variant: compose producer-name -> canonical -> request-name.
  std::unordered_map<std::string, std::string> CanonToNew;
  for (const auto &[Orig, Canon] : ToCanon.VarMap)
    CanonToNew[Canon] = Orig;
  std::unordered_map<std::string, std::string> OldToNew;
  for (const auto &[Orig, Canon] : From.VarMap) {
    auto It = CanonToNew.find(Canon);
    if (It != CanonToNew.end() && It->second != Orig)
      OldToNew[Orig] = It->second;
  }
  std::unordered_map<std::string, std::string> TargetMap;
  for (size_t I = 0; I < From.Targets.size() && I < ToCanon.Targets.size();
       ++I)
    if (From.Targets[I] != ToCanon.Targets[I])
      TargetMap[From.Targets[I]] = ToCanon.Targets[I];

  machine::Program &P = R.Search.Program;
  P.Name = To.Name;
  for (machine::ProgramInput &In : P.Inputs) {
    auto It = OldToNew.find(In.Name);
    if (It != OldToNew.end())
      In.Name = It->second;
  }
  for (auto &[Target, Reg] : P.Outputs) {
    auto It = TargetMap.find(Target);
    if (It != TargetMap.end())
      Target = It->second;
  }
  return R;
}

CompileServer::CompileServer(ServerOptions Opts)
    : SOpts(Opts), Opt(Opts.Pipeline),
      ResultKeys(resultFingerprint(Opt.options())),
      GraphKeys(matchFingerprint(Opt.options())),
      Pool(Opts.Threads == 0 ? 1 : Opts.Threads),
      Results(Opts.CacheBytes, "server.cache"),
      // --cache-bytes 0 is the "no acceleration at all" switch: it turns
      // the warm-graph memo off too, so every request runs the unmodified
      // driver pipeline.
      Graphs(Opts.CacheBytes == 0 ? 0 : Opts.WarmGraphs, "server.memo"),
      WinAll(obs::Registry::global().windowed("server.win.request.us")),
      WinCold(obs::Registry::global().windowed("server.win.request.cold.us")),
      WinWarm(obs::Registry::global().windowed("server.win.request.warm.us")),
      WinHit(obs::Registry::global().windowed("server.win.request.hit.us")),
      InFlightGauge(obs::Registry::global().gauge("server.inflight")),
      InFlightMaxGauge(obs::Registry::global().gauge("server.inflight.max")),
      QueueDepthGauge(obs::Registry::global().gauge("server.queue.depth")),
      RequestCounter(obs::Registry::global().counter("server.requests")),
      ParseErrorCounter(
          obs::Registry::global().counter("server.parse_errors")),
      SlowCounter(obs::Registry::global().counter("server.slow_requests")) {
  // Always-on telemetry: a server with no explicit obs configuration still
  // mints request ids, stamps spans, and feeds the live windows. Metrics
  // only — event buffering stays off so a long-lived server with no
  // exporter draining the trace buffers never accumulates events, and an
  // existing configuration (e.g. --trace-out) is left untouched.
  if (SOpts.Telemetry && !obs::enabled()) {
    obs::ObsConfig C = obs::config();
    C.Enabled = true;
    C.Events = false;
    obs::configure(C);
  }
  if (SOpts.MetricsFlushSec > 0) {
    obs::MetricsFlusher::Options FO;
    FO.Path = SOpts.MetricsFlushPath;
    FO.IntervalSec = SOpts.MetricsFlushSec;
    FO.MaxBytes = SOpts.MetricsFlushMaxBytes;
    Flusher.start(FO);
  }
}

CompileServer::~CompileServer() {
  // Stop the flusher before the pool (and everything it may observe) goes
  // away; stop() writes one final snapshot line.
  Flusher.stop();
}

ServerResponse CompileServer::serveCached(const CachedResult &Hit,
                                          const gma::GMA &G,
                                          const CanonicalGma &C,
                                          double Seconds) {
  CacheServes.fetch_add(1, std::memory_order_relaxed);
  ServerResponse R;
  R.Result = renameResult(Hit.Result, Hit.Canon, G, C);
  R.Source = ResultSource::CacheHit;
  R.Seconds = Seconds;
  return R;
}

ServerResponse CompileServer::compileGma(const gma::GMA &G) {
  // Every request gets a process-unique id; all spans recorded under the
  // scope (parse happened earlier, but canonicalize, cache probes,
  // saturate, universe, search, encode run inside) are stamped with it, so
  // one request's full stage breakdown is extractable from a shared trace.
  const uint64_t Req = obs::nextRequestId();
  std::unique_ptr<obs::RequestTrace> Trace;
  if (SOpts.SlowMs > 0 && obs::enabled())
    Trace = std::make_unique<obs::RequestTrace>();
  const int64_t Running = InFlight.fetch_add(1, std::memory_order_relaxed) + 1;
  InFlightGauge.set(Running);
  InFlightMaxGauge.noteMax(Running);
  ServerResponse R;
  {
    obs::RequestScope Scope(Req, Trace.get());
    R = compileGmaTiered(G, Req);
  }
  InFlightGauge.set(InFlight.fetch_sub(1, std::memory_order_relaxed) - 1);
  noteRequestDone(R, Req, Trace.get());
  return R;
}

void CompileServer::noteRequestDone(const ServerResponse &R, uint64_t Req,
                                    obs::RequestTrace *Trace) {
  if (!SOpts.Telemetry && !obs::enabled())
    return;
  const uint64_t Us = static_cast<uint64_t>(R.Seconds * 1e6);
  WinAll.record(Us);
  switch (R.Source) {
  case ResultSource::Cold:
    WinCold.record(Us);
    break;
  case ResultSource::WarmGraph:
    WinWarm.record(Us);
    break;
  case ResultSource::CacheHit:
    WinHit.record(Us);
    break;
  }
  if (SOpts.SlowMs > 0 && R.Seconds * 1e3 >= SOpts.SlowMs) {
    SlowRequests.fetch_add(1, std::memory_order_relaxed);
    SlowCounter.add();
    obs::logf(0, "slow request #%llu '%s': %.3f ms (source %s)",
              static_cast<unsigned long long>(Req),
              R.Result.Gma.Name.c_str(), R.Seconds * 1e3,
              resultSourceName(R.Source));
    // The span tree can be arbitrarily long; bypass logf's bounded buffer.
    if (Trace)
      std::fputs(Trace->spanTreeText().c_str(), stderr);
  }
}

ServerResponse CompileServer::compileGmaTiered(const gma::GMA &G,
                                               uint64_t Req) {
  obs::ObsSpan Span("server.request");
  if (Span.active())
    Span.arg("name", G.Name.c_str())
        .arg("req", Req)
        .arg("machine", SOpts.Pipeline.MachineName.c_str());
  Timer T;
  Requests.fetch_add(1, std::memory_order_relaxed);
  RequestCounter.add();

  // Canonicalization is a pure read on the shared Context; no lock.
  CanonicalGma C = canonicalizeGma(Opt.context(), G);
  Key128 RKey = ResultKeys.key(C.Text);

  // Tier 1: result cache.
  if (std::shared_ptr<const CachedResult> Hit = Results.get(RKey, C.Text)) {
    ServerResponse R = serveCached(*Hit, G, C, 0);
    R.Seconds = T.seconds();
    if (Span.active())
      Span.arg("source", "hit");
    return R;
  }

  // Tier 2: warm saturated graph. The shared_ptr we hold keeps the graph
  // alive even if the memo evicts the entry mid-compile.
  Key128 GKey = GraphKeys.key(C.Text);
  if (std::shared_ptr<const CachedGraph> Warm = Graphs.get(GKey, C.Text)) {
    WarmCompiles.fetch_add(1, std::memory_order_relaxed);
    driver::GmaResult R = Opt.compileSaturated(Warm->Saturated, G);
    // Cache in the *producer's* name space, with the producer's renaming,
    // so later hits compose names exactly like this one did.
    Results.put(RKey, C.Text,
                std::make_shared<CachedResult>(CachedResult{R, Warm->Canon}),
                approxResultBytes(R, Warm->Canon));
    ServerResponse Out;
    Out.Result = renameResult(R, Warm->Canon, G, C);
    Out.Source = ResultSource::WarmGraph;
    Out.Seconds = T.seconds();
    if (Span.active())
      Span.arg("source", "warm");
    return Out;
  }

  // Tier 3: cold compile; populate both tiers.
  ColdCompiles.fetch_add(1, std::memory_order_relaxed);
  driver::SaturatedGma S = Opt.saturateGMA(G);
  driver::GmaResult R = Opt.compileSaturated(S, G);
  if (S.ok())
    Graphs.put(GKey, C.Text,
               std::make_shared<CachedGraph>(CachedGraph{std::move(S), C}),
               1);
  Results.put(RKey, C.Text,
              std::make_shared<CachedResult>(CachedResult{R, C}),
              approxResultBytes(R, C));
  ServerResponse Out;
  Out.Result = std::move(R);
  Out.Source = ResultSource::Cold;
  Out.Seconds = T.seconds();
  if (Span.active())
    Span.arg("source", "cold");
  return Out;
}

ServerResponse CompileServer::compileText(const std::string &Text) {
  gma::GMA G;
  {
    std::lock_guard<std::mutex> Lock(FrontEndMu);
    std::string Err;
    std::optional<gma::GMA> Parsed =
        verify::parseGma(Opt.context(), Text, &Err);
    if (!Parsed) {
      Requests.fetch_add(1, std::memory_order_relaxed);
      ParseErrors.fetch_add(1, std::memory_order_relaxed);
      ParseErrorCounter.add();
      ServerResponse R;
      R.Result.Error = "parse: " + Err;
      return R;
    }
    G = std::move(*Parsed);
  }
  return compileGma(G);
}

std::vector<ServerResponse>
CompileServer::compileBulk(const std::vector<std::string> &Texts) {
  obs::ObsSpan Span("server.bulk");
  if (Span.active())
    Span.arg("requests", static_cast<uint64_t>(Texts.size()));

  struct Parsed {
    bool Ok = false;
    gma::GMA G;
    std::string Err;
  };
  std::vector<Parsed> Reqs(Texts.size());
  {
    // One lock acquisition for the whole batch: interning dominates the
    // front-end cost and contends with nothing while we hold it.
    std::lock_guard<std::mutex> Lock(FrontEndMu);
    for (size_t I = 0; I < Texts.size(); ++I) {
      std::string Err;
      std::optional<gma::GMA> G =
          verify::parseGma(Opt.context(), Texts[I], &Err);
      if (G) {
        Reqs[I].Ok = true;
        Reqs[I].G = std::move(*G);
      } else {
        Reqs[I].Err = std::move(Err);
      }
    }
  }

  // Group same-skeleton requests so each canonical goal skeleton is
  // saturated once: the group's first request (the leader) compiles and
  // fills the tiers, followers are then served warm/from cache. With
  // caching off every member compiles cold — the pre-server behavior.
  std::unordered_map<std::string, std::vector<size_t>> Groups;
  std::vector<std::string> GroupOrder;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    if (!Reqs[I].Ok)
      continue;
    std::string Key = canonicalizeGma(Opt.context(), Reqs[I].G).Text;
    auto [It, Fresh] = Groups.emplace(std::move(Key), std::vector<size_t>());
    if (Fresh)
      GroupOrder.push_back(It->first);
    It->second.push_back(I);
  }
  if (Span.active())
    Span.arg("groups", static_cast<uint64_t>(GroupOrder.size()));

  std::vector<ServerResponse> Responses(Texts.size());
  std::vector<std::future<void>> Futures;
  Futures.reserve(GroupOrder.size());
  for (const std::string &Key : GroupOrder) {
    const std::vector<size_t> &Members = Groups[Key];
    Futures.push_back(Pool.submit([this, &Reqs, &Responses, Members]() {
      for (size_t I : Members)
        Responses[I] = compileGma(Reqs[I].G);
    }));
  }
  for (std::future<void> &F : Futures)
    F.get();
  for (size_t I = 0; I < Reqs.size(); ++I)
    if (!Reqs[I].Ok) {
      Requests.fetch_add(1, std::memory_order_relaxed);
      ParseErrors.fetch_add(1, std::memory_order_relaxed);
      ParseErrorCounter.add();
      Responses[I].Result.Error = "parse: " + Reqs[I].Err;
    }
  return Responses;
}

namespace {

std::string formatResponse(const ServerResponse &R, bool PrintProgram) {
  if (!R.Result.Error.empty())
    return "(error \"" + obs::jsonEscape(R.Result.Error) + "\")";
  std::string Name =
      R.Result.Gma.Name.empty() ? std::string("unnamed") : R.Result.Gma.Name;
  std::string Line =
      strFormat("(ok %s :cycles %u :source %s :seconds %.6f", Name.c_str(),
                R.Result.Search.Cycles, resultSourceName(R.Source),
                R.Seconds);
  if (PrintProgram)
    Line +=
        " :program \"" + obs::jsonEscape(R.Result.Search.Program.toString()) +
        "\"";
  return Line + ")";
}

/// Paren balance of \p Line, for accumulating multi-line forms. The wire
/// syntax has no string atoms on the request side, so raw counting works.
int parenDelta(const std::string &Line) {
  int D = 0;
  for (char C : Line) {
    if (C == '(')
      ++D;
    else if (C == ')')
      --D;
    else if (C == ';')
      break; // Comment to end of line.
  }
  return D;
}

bool isForm(const std::string &Buf, const char *Verb) {
  size_t I = Buf.find_first_not_of(" \t\r\n");
  if (I == std::string::npos || Buf[I] != '(')
    return false;
  I = Buf.find_first_not_of(" \t", I + 1);
  size_t E = I;
  while (E < Buf.size() && Buf[E] != ' ' && Buf[E] != ')' && Buf[E] != '\n')
    ++E;
  return Buf.compare(I, E - I, Verb) == 0;
}

} // namespace

int CompileServer::serve(std::istream &In, std::ostream &Out) {
  int Failures = 0;
  std::deque<std::future<std::string>> Pending;
  auto Flush = [&](bool All) {
    while (!Pending.empty()) {
      if (!All &&
          Pending.size() <= static_cast<size_t>(SOpts.Threads) * 4 &&
          Pending.front().wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready)
        break;
      std::string Line = Pending.front().get();
      Pending.pop_front();
      if (Line.compare(0, 6, "(error") == 0)
        ++Failures;
      Out << Line << "\n" << std::flush;
    }
    QueueDepthGauge.set(static_cast<int64_t>(Pending.size()));
  };

  std::string Buf, Line;
  int Depth = 0;
  bool Quit = false;
  while (!Quit && std::getline(In, Line)) {
    if (Buf.empty() && Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    if (!Buf.empty())
      Buf += "\n";
    Buf += Line;
    Depth += parenDelta(Line);
    if (Depth > 0)
      continue; // Form still open; keep accumulating.
    Depth = 0;
    std::string Form;
    Form.swap(Buf);
    if (isForm(Form, "quit")) {
      Quit = true;
    } else if (isForm(Form, "stats")) {
      // Keep strict request ordering: drain compiles first.
      Flush(true);
      Out << statsText() << "\n" << std::flush;
    } else if (isForm(Form, "stats-full")) {
      Flush(true);
      Out << statsFullText() << "\n" << std::flush;
    } else {
      bool PrintProgram = SOpts.PrintPrograms;
      Pending.push_back(
          Pool.submit([this, Text = std::move(Form), PrintProgram]() {
            return formatResponse(compileText(Text), PrintProgram);
          }));
    }
    QueueDepthGauge.set(static_cast<int64_t>(Pending.size()));
    Flush(false);
  }
  Flush(true);
  return Failures;
}

ServerStats CompileServer::stats() const {
  ServerStats St;
  St.Requests = Requests.load(std::memory_order_relaxed);
  St.ParseErrors = ParseErrors.load(std::memory_order_relaxed);
  St.ColdCompiles = ColdCompiles.load(std::memory_order_relaxed);
  St.WarmCompiles = WarmCompiles.load(std::memory_order_relaxed);
  St.CacheServes = CacheServes.load(std::memory_order_relaxed);
  St.SlowRequests = SlowRequests.load(std::memory_order_relaxed);
  St.InFlight = InFlight.load(std::memory_order_relaxed);
  St.ResultCache = Results.stats();
  St.GraphMemo = Graphs.stats();
  return St;
}

std::string CompileServer::statsText() const {
  ServerStats St = stats();
  return strFormat(
      "(stats :requests %llu :parse-errors %llu :cold %llu :warm %llu "
      ":hits %llu :cache-entries %zu :cache-bytes %zu :cache-evictions %llu "
      ":memo-entries %zu :memo-evictions %llu)",
      (unsigned long long)St.Requests, (unsigned long long)St.ParseErrors,
      (unsigned long long)St.ColdCompiles,
      (unsigned long long)St.WarmCompiles,
      (unsigned long long)St.CacheServes, St.ResultCache.Entries,
      St.ResultCache.Bytes, (unsigned long long)St.ResultCache.Evictions,
      St.GraphMemo.Entries, (unsigned long long)St.GraphMemo.Evictions);
}

std::string CompileServer::statsFullText() const {
  ServerStats St = stats();
  auto Lat = [](const char *Key, const obs::WindowedHistogram &W) {
    obs::WindowedHistogram::Snapshot S = W.snapshot();
    return strFormat(
        " (lat %s :count %llu :p50-us %llu :p90-us %llu :p99-us %llu "
        ":max-us %llu)",
        Key, (unsigned long long)S.Count,
        (unsigned long long)S.percentile(0.50),
        (unsigned long long)S.percentile(0.90),
        (unsigned long long)S.percentile(0.99), (unsigned long long)S.Max);
  };
  std::string Out = strFormat(
      "(stats-full :requests %llu :parse-errors %llu :cold %llu :warm %llu "
      ":hits %llu :slow %llu :inflight %lld :queue-depth %lld "
      ":cache-entries %zu :cache-bytes %zu :memo-entries %zu :window-s %.0f",
      (unsigned long long)St.Requests, (unsigned long long)St.ParseErrors,
      (unsigned long long)St.ColdCompiles,
      (unsigned long long)St.WarmCompiles,
      (unsigned long long)St.CacheServes,
      (unsigned long long)St.SlowRequests, (long long)St.InFlight,
      (long long)QueueDepthGauge.get(), St.ResultCache.Entries,
      St.ResultCache.Bytes, St.GraphMemo.Entries,
      static_cast<double>(WinAll.windowNs()) / 1e9);
  Out += Lat("all", WinAll);
  Out += Lat("cold", WinCold);
  Out += Lat("warm", WinWarm);
  Out += Lat("hit", WinHit);
  // Top-5 axioms by accumulated self-time, from the saturation profiler's
  // live match.axiom.<id>.* counter family (empty until a cold compile
  // has saturated something). Self-time = match + instantiate.
  struct AxiomRow {
    std::string Id;
    uint64_t SelfUs = 0, Raw = 0, Instances = 0;
  };
  std::map<std::string, AxiomRow> ByAxiom;
  const std::string Prefix = "match.axiom.";
  for (const auto &[Name, Value] :
       obs::Registry::global().countersWithPrefix(Prefix)) {
    size_t LeafDot = Name.rfind('.');
    if (LeafDot == std::string::npos || LeafDot <= Prefix.size())
      continue;
    std::string Id = Name.substr(Prefix.size(), LeafDot - Prefix.size());
    std::string Leaf = Name.substr(LeafDot + 1);
    AxiomRow &Row = ByAxiom[Id];
    Row.Id = Id;
    if (Leaf == "match_us" || Leaf == "inst_us")
      Row.SelfUs += Value;
    else if (Leaf == "raw")
      Row.Raw = Value;
    else if (Leaf == "instances")
      Row.Instances = Value;
  }
  std::vector<AxiomRow> Rows;
  Rows.reserve(ByAxiom.size());
  for (auto &[Id, Row] : ByAxiom)
    Rows.push_back(std::move(Row));
  std::sort(Rows.begin(), Rows.end(),
            [](const AxiomRow &A, const AxiomRow &B) {
              if (A.SelfUs != B.SelfUs)
                return A.SelfUs > B.SelfUs;
              return A.Id < B.Id;
            });
  if (Rows.size() > 5)
    Rows.resize(5);
  for (const AxiomRow &Row : Rows)
    Out += strFormat(
        " (axiom \"%s\" :self-us %llu :raw %llu :instances %llu)",
        Row.Id.c_str(), (unsigned long long)Row.SelfUs,
        (unsigned long long)Row.Raw, (unsigned long long)Row.Instances);
  return Out + ")";
}
