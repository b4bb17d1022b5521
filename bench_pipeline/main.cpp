//===- bench_pipeline/main.cpp - The per-layer pipeline benchmark ---------===//
//
// Usage:
//   pipeline_bench --workload paper-alu|paper-loops|server-mix --seed N
//                  --seconds S --trace 0|1 --data DIR [--corpus-seed N]
//
// Prints one row per metric, then the result as one JSON line (the last
// line of stdout). --trace 0 measures the end-to-end metrics; --trace 1
// runs the layer-by-layer compile of Layers.h next to the untraced one and
// reports the per-layer metrics. Every answer is checked outside the timed
// region; any failed check makes the exit code 1. README.md documents the
// workloads and the metrics.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "gma/GMA.h"
#include "lang/Surface.h"
#include "server/Canon.h"
#include "server/Server.h"
#include "support/StringExtras.h"
#include "support/Timer.h"
#include "verify/GmaText.h"
#include "verify/ScheduleValidator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <latch>
#include <mutex>
#include <numeric>
#include <random>
#include <sys/resource.h>
#include <thread>

using namespace denali;
using namespace denali::pipebench;

namespace {

// Set-up is repeated at evenly spaced moments of the run and its median
// reported, so neither one slow set-up nor one slow stretch of the host
// decides setup_s.
constexpr size_t SetupReps = 9;
// Passes (paper workloads) and rounds (server-mix) measured at least, even
// past --seconds: the determinism checks compare repetitions.
constexpr size_t MinPasses = 3;
constexpr size_t MinRounds = 2;
constexpr unsigned Clients = 2;
// The pinned GmaGen corpus of server-mix; --corpus-seed 1017 is the held-out
// corpus for confirming a claim on skeletons it was not tuned on.
constexpr uint64_t DefaultCorpusSeed = 17;
// Differential-oracle trials per checked answer.
constexpr unsigned OracleTrials = 16;

struct Args {
  std::string Workload, Data;
  uint64_t Seed = 1, CorpusSeed = DefaultCorpusSeed;
  double Seconds = 10;
  bool Trace = false;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The end-to-end estimator of a repeated measurement. The host's speed
/// changes by up to 1.7 times for seconds to minutes at a time; the fastest
/// repetition is the one least slowed by it.
double fastest(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

/// Set-up times, taken at evenly spaced moments of a run of \p Seconds.
class SetupTimes {
public:
  explicit SetupTimes(double Seconds) : Seconds(Seconds) {}
  /// The next set-up is due \p Elapsed seconds into the run.
  bool due(double Elapsed) const {
    return Times.size() < SetupReps &&
           Elapsed >= Seconds * Times.size() / SetupReps;
  }
  bool complete() const { return Times.size() >= SetupReps; }
  void add(double S) { Times.push_back(S); }
  double median() const { return ::median(Times); }

private:
  double Seconds;
  std::vector<double> Times;
};

/// Linear interpolation between order statistics.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / static_cast<double>(V.size()));
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Metric rows, failures, and the final JSON line.
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit) {
    if (!std::isfinite(Value))
      check(false, Name + " is not finite");
    row(Name, Value, Unit);
    Metrics.push_back({Name, std::isfinite(Value) ? Value : 0, Unit});
  }
  /// A row for the reader only; not part of the JSON result.
  void row(const std::string &Name, double Value, const char *Unit) {
    std::printf("%-34s %.9g %s\n", Name.c_str(), Value, Unit);
  }
  /// Counts one checked operation; \p Ok false counts it failed.
  void operation(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "FAIL: %s\n", What.c_str());
    }
  }
  /// A check that is not itself an operation (determinism, tier counts,
  /// traced-run equality, span coverage).
  void check(bool Ok, const std::string &What) {
    if (!Ok) {
      Correct = false;
      std::fprintf(stderr, "FAIL: %s\n", What.c_str());
    }
  }
  uint64_t failed() const { return Failed; }
  uint64_t attempted() const { return Attempted; }
  bool correct() const { return Correct && Failed == 0 && Attempted > 0; }

  void printJson() const {
    std::string Out = strFormat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct() ? "true" : "false", (unsigned long long)Attempted,
        (unsigned long long)Failed);
    for (size_t I = 0; I < Metrics.size(); ++I)
      Out += strFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       I ? ", " : "", Metrics[I].Name.c_str(),
                       Metrics[I].Value, Metrics[I].Unit);
    std::printf("%s}}\n", Out.c_str());
  }

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
};

/// K proved minimal: a smaller budget was refuted, or K is at or below the
/// smallest budget searched (0 when the goals need no instruction).
bool isOptimal(const driver::Superoptimizer &Opt, const driver::GmaResult &R) {
  return R.ok() && (R.Search.LowerBoundProved ||
                    R.Search.Cycles <= Opt.options().Search.MinCycles);
}

/// Same answer and same work: K, the lower-bound proof, the program text and
/// every deterministic counter.
bool sameAnswer(const driver::GmaResult &A, const driver::GmaResult &B) {
  return A.ok() == B.ok() && A.Search.Cycles == B.Search.Cycles &&
         A.Search.LowerBoundProved == B.Search.LowerBoundProved &&
         countsOf(A.Matching, A.Search) == countsOf(B.Matching, B.Search) &&
         A.Search.Program.toString() == B.Search.Program.toString();
}

/// The referees, run outside the timed region: the answer exists, has the
/// expected cycles (when known), passes the differential oracle and the
/// independent schedule replay. Adds the two checks' seconds to the
/// optional accumulators.
bool refereeOk(const driver::Superoptimizer &Opt, const driver::GmaResult &R,
               unsigned Expected, uint64_t Seed, std::string &Why,
               double *OracleS = nullptr, double *ScheduleS = nullptr) {
  if (!R.ok()) {
    Why = "compile failed: " + R.Error;
    return false;
  }
  if (Expected && R.Search.Cycles != Expected) {
    Why = strFormat("%u cycles, expected %u", R.Search.Cycles, Expected);
    return false;
  }
  Timer T;
  std::optional<std::string> Bad = Opt.verify(R, OracleTrials, Seed);
  if (OracleS)
    *OracleS += T.seconds();
  if (Bad) {
    Why = "oracle: " + *Bad;
    return false;
  }
  T.reset();
  verify::ScheduleReport SR =
      verify::validateSchedule(Opt.isa(), R.Search.Program, R.Search.Cycles);
  if (ScheduleS)
    *ScheduleS += T.seconds();
  if (!SR.Ok) {
    Why = "schedule replay: " + SR.toString();
    return false;
  }
  return true;
}

/// Per-layer values summed over a workload's distinct GMAs.
struct LayerSums {
  std::vector<LayerTimes> PerGma; ///< Medians, one entry per GMA.
  std::vector<double> Glue;        ///< Median LayerTimes::glue() per GMA.
  LayerCounts Counts;
  uint64_t Terms = 0;
  double Untraced = 0; ///< Sum of the GMAs' median untraced wall times.
};

/// Collects the traced samples of each GMA. Counts are taken from the first
/// sample: the callers check that every sample has the same.
class LayerSampler {
public:
  explicit LayerSampler(size_t N) : Samples(N), Untraced(N), First(N) {}

  void add(size_t I, const TracedCompile &T, double UntracedS) {
    if (Samples[I].empty())
      First[I] = {T.Counts, T.UniverseTerms};
    Samples[I].push_back(T.Times);
    Untraced[I].push_back(UntracedS);
  }

  LayerSums sums() const {
    LayerSums S;
    for (size_t I = 0; I < Samples.size(); ++I) {
      auto Med = [&](auto Field) {
        std::vector<double> V;
        for (const LayerTimes &T : Samples[I])
          V.push_back(Field(T));
        return median(V);
      };
      LayerTimes M;
      for (double LayerTimes::*F :
           {&LayerTimes::Seed, &LayerTimes::Saturate, &LayerTimes::Freeze,
            &LayerTimes::Universe, &LayerTimes::Search, &LayerTimes::Encode,
            &LayerTimes::Solve, &LayerTimes::Free, &LayerTimes::Wall})
        M.*F = Med([F](const LayerTimes &T) { return T.*F; });
      S.PerGma.push_back(M);
      S.Glue.push_back(Med([](const LayerTimes &T) { return T.glue(); }));
      S.Untraced += median(Untraced[I]);
      S.Counts += First[I].first;
      S.Terms += First[I].second;
    }
    return S;
  }

private:
  std::vector<std::vector<LayerTimes>> Samples;
  std::vector<std::vector<double>> Untraced;
  std::vector<std::pair<LayerCounts, uint64_t>> First;
};

/// The traced answer equals compileGMA's.
bool tracedMatches(const TracedCompile &T, const driver::GmaResult &R) {
  return T.Error.empty() == R.ok() && T.Search.Cycles == R.Search.Cycles &&
         T.Search.LowerBoundProved == R.Search.LowerBoundProved &&
         T.Counts == countsOf(R.Matching, R.Search) &&
         T.Search.Program.toString() == R.Search.Program.toString();
}

/// Glue below 5% of each GMA's wall time, i.e. the layer spans cover at
/// least 95% of it.
constexpr double MaxGlueShare = 0.05;
/// Summed over a workload, the layer spans lie within this share of the
/// untraced compileGMA time: the traced path neither skips work compileGMA
/// pays for nor adds work of its own.
constexpr double MaxSpanDrift = 0.10;

/// The server layer's metrics; all 0 on the paper workloads.
struct ServerLayer {
  double ParseS = 0, CanonS = 0, HitP50 = 0, ColdP50 = 0;
  uint64_t Cold = 0, Warm = 0, Hits = 0, Requests = 0;
};

/// Prints every per-layer metric and checks span coverage. Layers the
/// workload bypasses (the server on the paper workloads, the source front
/// end on server-mix) report 0.
void reportLayers(Report &Rep, const LayerSums &L, double LangParseS,
                  double TranslateS, double OracleS, double ScheduleS,
                  const ServerLayer &Srv,
                  const std::vector<std::string> &GmaNames) {
  auto Sum = [&](double LayerTimes::*F) {
    double S = 0;
    for (const LayerTimes &T : L.PerGma)
      S += T.*F;
    return S;
  };
  double Glue = 0, Traced = Sum(&LayerTimes::Wall);
  for (size_t I = 0; I < L.PerGma.size(); ++I) {
    double Wall = L.PerGma[I].Wall;
    Glue += L.Glue[I];
    Rep.check(L.Glue[I] <= MaxGlueShare * Wall,
              strFormat("%s: layer spans cover %.1f%% of the traced compile",
                        GmaNames[I].c_str(), 100.0 * (1 - L.Glue[I] / Wall)));
  }
  double Spans = Traced - Glue;
  Rep.check(std::abs(Spans / L.Untraced - 1) <= MaxSpanDrift,
            strFormat("layer spans sum to %.1f%% of the untraced compileGMA "
                      "time, outside 100 +- %.0f%%",
                      100.0 * Spans / L.Untraced, 100.0 * MaxSpanDrift));
  const LayerCounts &C = L.Counts;
  Rep.metric("match.saturate_s", Sum(&LayerTimes::Saturate), "s");
  Rep.metric("match.rounds", C.Rounds, "count");
  Rep.metric("match.raw", C.Raw, "count");
  Rep.metric("match.asserted", C.Asserted, "count");
  Rep.metric("match.useful_ratio",
             C.Raw ? static_cast<double>(C.Asserted) / C.Raw : 0, "ratio");
  Rep.metric("match.merges", C.Merges, "count");
  Rep.metric("match.rebuilds", C.Rebuilds, "count");
  Rep.metric("egraph.seed_s", Sum(&LayerTimes::Seed), "s");
  Rep.metric("egraph.freeze_s", Sum(&LayerTimes::Freeze), "s");
  Rep.metric("egraph.free_s", Sum(&LayerTimes::Free), "s");
  Rep.metric("egraph.nodes", C.Nodes, "count");
  Rep.metric("egraph.classes", C.Classes, "count");
  Rep.metric("codegen.universe_s", Sum(&LayerTimes::Universe), "s");
  Rep.metric("codegen.terms", L.Terms, "count");
  Rep.metric("codegen.search_s", Sum(&LayerTimes::Search), "s");
  Rep.metric("codegen.encode_s", Sum(&LayerTimes::Encode), "s");
  Rep.metric("codegen.extract_s",
             Sum(&LayerTimes::Search) - Sum(&LayerTimes::Encode) -
                 Sum(&LayerTimes::Solve),
             "s");
  Rep.metric("codegen.vars", C.Vars, "count");
  Rep.metric("codegen.clauses", C.Clauses, "count");
  Rep.metric("codegen.clauses_definition", C.ClausesDefinition, "count");
  Rep.metric("codegen.clauses_exclusivity", C.ClausesExclusivity, "count");
  Rep.metric("codegen.probes", C.Probes, "count");
  Rep.metric("sat.solve_s", Sum(&LayerTimes::Solve), "s");
  Rep.metric("sat.conflicts", C.Conflicts, "count");
  Rep.metric("sat.propagations", C.Propagations, "count");
  Rep.metric("sat.unsat_zero_conflict", C.UnsatZeroConflict, "count");
  Rep.metric("server.parse_s", Srv.ParseS, "s");
  Rep.metric("server.canon_s", Srv.CanonS, "s");
  Rep.metric("server.cold", Srv.Cold, "count");
  Rep.metric("server.warm", Srv.Warm, "count");
  Rep.metric("server.hits", Srv.Hits, "count");
  Rep.metric("server.hit_ratio",
             Srv.Requests ? static_cast<double>(Srv.Hits) / Srv.Requests : 0,
             "ratio");
  Rep.metric("server.hit_s.p50", Srv.HitP50, "s");
  Rep.metric("server.cold_s.p50", Srv.ColdP50, "s");
  Rep.metric("lang.parse_s", LangParseS, "s");
  Rep.metric("gma.translate_s", TranslateS, "s");
  Rep.metric("verify.oracle_s", OracleS, "s");
  Rep.metric("verify.schedule_s", ScheduleS, "s");
  Rep.metric("driver.glue_s", Glue, "s");
  Rep.metric("driver.traced_s", Traced, "s");
  Rep.metric("driver.untraced_s", L.Untraced, "s");
  Rep.metric("driver.trace_overhead",
             L.Untraced > 0 ? Traced / L.Untraced - 1 : 0, "ratio");
  Rep.row("driver.span_share", Spans / L.Untraced, "ratio");
}

//===----------------------------------------------------------------------===//
// Paper workloads: one client compiling each GMA in turn (closed loop).
//===----------------------------------------------------------------------===//

std::string kernelLabel(const PaperSet &Set, const Kernel &K) {
  return Set.Sources[K.Source].File + ":" + K.G.Name;
}

/// The untraced end-to-end run. \p Setup times one more set-up; the run
/// calls it whenever \p Setups is due.
void measurePaper(const Args &A, PaperSet &Set, SetupTimes &Setups,
                  const std::function<double()> &Setup, Report &Rep) {
  const size_t N = Set.Kernels.size();
  std::vector<std::vector<double>> PerGma(N);
  std::vector<double> Passes;
  std::vector<driver::GmaResult> Sample(N);
  std::vector<uint64_t> Seen(N, 0);
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::mt19937_64 Rng(A.Seed);
  uint64_t Optimal = 0, Compiles = 0;
  Timer Run;
  while (Passes.size() < MinPasses || Run.seconds() < A.Seconds) {
    if (Setups.due(Run.seconds()))
      Setups.add(Setup());
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::vector<driver::GmaResult> Results(N);
    Compiles += N;
    Timer Pass;
    for (size_t I : Order) {
      const Kernel &K = Set.Kernels[I];
      Timer T;
      Results[I] = Set.Sources[K.Source].Opt->compileGMA(K.G);
      PerGma[I].push_back(T.seconds());
    }
    Passes.push_back(Pass.seconds());
    for (size_t I = 0; I < N; ++I) {
      const Kernel &K = Set.Kernels[I];
      Rep.operation(sameAnswer(Results[I], K.First),
                    kernelLabel(Set, K) + ": repeated compile differs from "
                                          "the first (answer or counters)");
      Optimal += isOptimal(*Set.Sources[K.Source].Opt, Results[I]);
      // Reservoir sample: the pass whose answer the referees re-check.
      if (Rng() % ++Seen[I] == 0)
        Sample[I] = std::move(Results[I]);
    }
  }
  while (!Setups.complete())
    Setups.add(Setup());
  std::vector<double> Fastest;
  for (size_t I = 0; I < N; ++I) {
    const Kernel &K = Set.Kernels[I];
    std::string Why;
    Rep.check(refereeOk(*Set.Sources[K.Source].Opt, Sample[I], K.Expected,
                        A.Seed + 1, Why),
              kernelLabel(Set, K) + " (sampled compile): " + Why);
    Fastest.push_back(fastest(PerGma[I]));
    Rep.row("compile_s[" + kernelLabel(Set, K) + "]", Fastest.back(), "s");
  }
  Rep.metric("setup_s", Setups.median(), "s");
  Rep.metric("compile_s.geomean", geomean(Fastest), "s");
  Rep.metric("pass_s", fastest(Passes), "s");
  // The requests are the distinct GMAs; repeated compiles of one GMA are
  // repeated measurements of one request, summarized by the fastest.
  Rep.metric("request_s.p50", quantile(Fastest, 0.50), "s");
  Rep.metric("request_s.p99", quantile(Fastest, 0.99), "s");
  Rep.metric("requests_per_s", N / fastest(Passes), "1/s");
  Rep.metric("optimal_share", static_cast<double>(Optimal) / Compiles,
             "share");
  Rep.row("compiles", Compiles, "count");
}

/// The traced run: the front end and every GMA, one layer call at a time,
/// interleaved with the untraced compileGMA it must agree with.
void tracePaper(const Args &A, PaperSet &Set, Report &Rep) {
  const size_t N = Set.Kernels.size();
  // The axiom lists compileGMA saturates under, rebuilt from the sources.
  // Rebuilding re-interns what the set-up interned, so it must leave every
  // instance's term and operator tables exactly as they were.
  std::vector<std::vector<match::Axiom>> Axioms;
  for (KernelSource &Src : Set.Sources) {
    ir::Context &Ctx = Src.Opt->context();
    size_t Terms = Ctx.Terms.size(), Ops = Ctx.Ops.size();
    std::string Err;
    std::optional<lang::Module> M = lang::parseAnyModule(Src.Text, &Err);
    std::vector<match::Axiom> Program;
    if (M)
      for (const sexpr::SExpr &Form : M->Axioms)
        if (std::optional<match::Axiom> Ax = match::parseAxiom(Ctx, Form, &Err))
          Program.push_back(std::move(*Ax));
    Axioms.push_back(pipelineAxioms(*Src.Opt, Program));
    Rep.check(M && Program.size() == M->Axioms.size() &&
                  Terms == Ctx.Terms.size() && Ops == Ctx.Ops.size(),
              Src.File + ": rebuilding the axiom list changed the instance");
  }

  LayerSampler Layers(N);
  std::vector<double> ParseS, TranslateS;
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::mt19937_64 Rng(A.Seed);
  Timer Run;
  for (size_t Pass = 0; Pass < MinPasses || Run.seconds() < A.Seconds;
       ++Pass) {
    // Front end: parse and translate each source again; the GMAs must
    // print exactly as the set-up's.
    double Parse = 0, Translate = 0;
    size_t Next = 0;
    for (KernelSource &Src : Set.Sources) {
      std::string Err;
      Timer T;
      std::optional<lang::Module> M = lang::parseAnyModule(Src.Text, &Err);
      Parse += T.seconds();
      std::vector<gma::GMA> Gmas;
      T.reset();
      if (M)
        for (const lang::Proc &P : M->Procs)
          if (auto Got = gma::translateProc(Src.Opt->context(), P, &Err))
            Gmas.insert(Gmas.end(), Got->begin(), Got->end());
      Translate += T.seconds();
      for (const gma::GMA &G : Gmas) {
        bool Same = Next < N && &Set.Sources[Set.Kernels[Next].Source] == &Src &&
                    verify::printGma(Src.Opt->context(), G) ==
                        verify::printGma(Src.Opt->context(),
                                         Set.Kernels[Next].G);
        Rep.check(Same, Src.File + ": re-translated GMA " + G.Name +
                            " differs from the set-up's");
        ++Next;
      }
    }
    Rep.check(Next == N, "re-translation produced a different GMA count");
    ParseS.push_back(Parse);
    TranslateS.push_back(Translate);

    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t I : Order) {
      const Kernel &K = Set.Kernels[I];
      const driver::Superoptimizer &Opt = *Set.Sources[K.Source].Opt;
      driver::GmaResult R;
      TracedCompile TC;
      double UntracedS = 0;
      // Alternate which goes first, so neither always runs on a warm cache.
      for (int Step = 0; Step < 2; ++Step) {
        if ((Step + Pass) % 2 == 0) {
          Timer T;
          R = Opt.compileGMA(K.G);
          UntracedS = T.seconds();
        } else {
          TC = tracedCompile(Opt, Axioms[K.Source], K.G);
        }
      }
      Layers.add(I, TC, UntracedS);
      Rep.operation(sameAnswer(R, K.First),
                    kernelLabel(Set, K) + ": repeated compile differs");
      Rep.check(tracedMatches(TC, K.First),
                kernelLabel(Set, K) + ": traced run differs from compileGMA");
    }
  }

  double OracleS = 0, ScheduleS = 0;
  LayerSums L = Layers.sums();
  std::vector<std::string> Names;
  for (const Kernel &K : Set.Kernels) {
    std::string Why;
    // Three timed repetitions; the median is charged to the layer.
    std::vector<double> Oracle(3, 0), Schedule(3, 0);
    bool Ok = true;
    for (int Rep3 = 0; Rep3 < 3; ++Rep3)
      Ok &= refereeOk(*Set.Sources[K.Source].Opt, K.First, K.Expected,
                      A.Seed + 1, Why, &Oracle[Rep3], &Schedule[Rep3]);
    Rep.check(Ok, kernelLabel(Set, K) + ": " + Why);
    OracleS += median(Oracle);
    ScheduleS += median(Schedule);
    Names.push_back(kernelLabel(Set, K));
  }
  reportLayers(Rep, L, median(ParseS), median(TranslateS), OracleS, ScheduleS,
               ServerLayer(), Names);
}

int runPaper(const Args &A, Report &Rep) {
  std::vector<ExpectedRow> Rows;
  std::string Err;
  if (!readExpected(A.Data + "/expected_cycles.txt", Rows, Err)) {
    std::fprintf(stderr, "pipeline_bench: %s\n", Err.c_str());
    return 2;
  }
  SetupTimes Setups(A.Seconds);
  PaperSet Set;
  Timer FirstSetup;
  if (!loadPaperSet(A.Data, A.Workload, Rows, Set, Err)) {
    std::fprintf(stderr, "pipeline_bench: %s\n", Err.c_str());
    return 2;
  }
  Setups.add(FirstSetup.seconds());
  // Later set-ups build a second set and drop it; the first was checked.
  auto Setup = [&] {
    PaperSet Again;
    Timer T;
    Rep.check(loadPaperSet(A.Data, A.Workload, Rows, Again, Err),
              "repeated set-up: " + Err);
    return T.seconds();
  };
  // The first compile of every GMA goes to the referees, and its cycles to
  // the expected-cycles check.
  double Cycles = 0;
  for (const Kernel &K : Set.Kernels) {
    std::string Why;
    Rep.operation(refereeOk(*Set.Sources[K.Source].Opt, K.First, K.Expected,
                            A.Seed, Why),
                  kernelLabel(Set, K) + ": " + Why);
    Cycles += K.First.Search.Cycles;
  }
  if (A.Trace) {
    tracePaper(A, Set, Rep);
    return 0;
  }
  measurePaper(A, Set, Setups, Setup, Rep);
  Rep.metric("cycles_total", Cycles, "cycles");
  return 0;
}

//===----------------------------------------------------------------------===//
// server-mix: Clients closed-loop threads on one CompileServer per round.
//===----------------------------------------------------------------------===//

server::ServerOptions serverOptions() {
  server::ServerOptions O;
  O.Pipeline = serverPipelineOptions();
  O.Threads = Clients;
  return O;
}

struct Answer {
  double Seconds = 0; ///< Client-side latency of compileText/compileGma.
  double ParseS = 0, CanonS = 0; ///< Traced rounds only.
  server::ServerResponse R;
  gma::GMA G; ///< Traced rounds: the parsed request.
};

/// One round: a fresh server, the whole stream, Clients threads taking
/// sessions from one queue. \returns the round's wall time.
double playRound(const ServerMix &Mix, server::CompileServer &Srv, bool Trace,
                 std::vector<std::vector<Answer>> &Out) {
  // Intern every request's terms before the clients start, so that parsing
  // during the round only looks terms up. The server interns under its
  // front-end lock but compiles read the term table without it, and a
  // table that grows mid-round races with them (ThreadSanitizer reports
  // it); pre-interning keeps the measured round free of that race.
  for (const std::vector<MixRequest> &Session : Mix.Sessions)
    for (const MixRequest &Q : Session) {
      std::string Err;
      verify::parseGma(Srv.opt().context(), Q.Text, &Err);
    }
  Out.assign(Mix.Sessions.size(), {});
  std::atomic<size_t> Next{0};
  std::mutex ParseMu; // Traced rounds parse outside the server, as it does.
  std::latch Start(1);
  auto Client = [&] {
    Start.wait();
    for (size_t S; (S = Next.fetch_add(1)) < Mix.Sessions.size();) {
      std::vector<Answer> &Answers = Out[S];
      Answers.resize(Mix.Sessions[S].size());
      for (size_t I = 0; I < Answers.size(); ++I) {
        Answer &Ans = Answers[I];
        const std::string &Text = Mix.Sessions[S][I].Text;
        if (!Trace) {
          Timer T;
          Ans.R = Srv.compileText(Text);
          Ans.Seconds = T.seconds();
          continue;
        }
        Timer T;
        {
          std::lock_guard<std::mutex> Lock(ParseMu);
          std::string Err;
          Timer P;
          std::optional<gma::GMA> G =
              verify::parseGma(Srv.opt().context(), Text, &Err);
          Ans.ParseS = P.seconds();
          if (G)
            Ans.G = std::move(*G);
        }
        Ans.R = Srv.compileGma(Ans.G);
        Ans.Seconds = T.seconds();
        Timer C;
        server::canonicalizeGma(Srv.opt().context(), Ans.G);
        Ans.CanonS = C.seconds();
      }
    }
  };
  Timer Wall;
  {
    std::vector<std::jthread> Threads;
    for (unsigned I = 0; I < Clients; ++I)
      Threads.emplace_back(Client);
    Wall.reset();
    Start.count_down();
  }
  return Wall.seconds();
}

/// What must repeat exactly for one skeleton's cold compile.
struct ColdAnswer {
  LayerCounts Counts;
  std::string Program;
  unsigned Cycles = 0;
  bool LowerBound = false;
};

/// Checks one round: exact tier counts, every answer ok, repeats equal to
/// their session's cold compile, cold compiles equal to the first round's.
/// The referees see every cold answer and the first renamed repeat of each
/// session in the first round, and 1 in 50 answers of later rounds.
/// \returns the server's counters.
server::ServerStats checkRound(const Args &A, const ServerMix &Mix,
                const server::CompileServer &Srv,
                const std::vector<std::vector<Answer>> &Out,
                std::vector<ColdAnswer> &First, std::mt19937_64 &Rng,
                Report &Rep, double *OracleS, double *ScheduleS) {
  const bool FirstRound = First.empty();
  server::ServerStats St = Srv.stats();
  Rep.check(St.ColdCompiles == Mix.Sessions.size() &&
                St.CacheServes == Mix.Requests - Mix.Sessions.size() &&
                St.WarmCompiles == 0 && St.ParseErrors == 0 &&
                St.Requests == Mix.Requests,
            strFormat("tier counts: %llu cold, %llu warm, %llu hits, %llu "
                      "parse errors; want %zu cold, %zu hits",
                      (unsigned long long)St.ColdCompiles,
                      (unsigned long long)St.WarmCompiles,
                      (unsigned long long)St.CacheServes,
                      (unsigned long long)St.ParseErrors,
                      Mix.Sessions.size(),
                      Mix.Requests - Mix.Sessions.size()));
  const driver::Superoptimizer &Opt = Srv.opt();
  for (size_t S = 0; S < Out.size(); ++S) {
    const driver::GmaResult &Cold = Out[S][0].R.Result;
    ColdAnswer C{countsOf(Cold.Matching, Cold.Search),
                 Cold.Search.Program.toString(), Cold.Search.Cycles,
                 Cold.Search.LowerBoundProved};
    if (FirstRound)
      First.push_back(C);
    const ColdAnswer &F = First[S];
    Rep.check(C.Counts == F.Counts && C.Program == F.Program &&
                  C.Cycles == F.Cycles && C.LowerBound == F.LowerBound,
              strFormat("skeleton %u: cold compile differs between rounds",
                        Mix.Sessions[S][0].Skeleton));
    bool RenamedChecked = false;
    for (size_t I = 0; I < Out[S].size(); ++I) {
      const server::ServerResponse &R = Out[S][I].R;
      const MixRequest &Q = Mix.Sessions[S][I];
      bool Ok = R.Result.ok() &&
                R.Source == (I == 0 ? server::ResultSource::Cold
                                    : server::ResultSource::CacheHit) &&
                R.Result.Search.Cycles == F.Cycles &&
                R.Result.Search.LowerBoundProved == F.LowerBound &&
                (Q.Renamed || R.Result.Search.Program.toString() == F.Program);
      std::string Why =
          R.Result.ok() ? strFormat("answered by the %s tier: %u cycles",
                                    server::resultSourceName(R.Source),
                                    R.Result.Search.Cycles)
                        : "compile failed: " + R.Result.Error;
      bool Referee = FirstRound ? I == 0 || (Q.Renamed && !RenamedChecked)
                                : Rng() % 50 == 0;
      if (Ok && Referee) {
        Ok = refereeOk(Opt, R.Result, 0, A.Seed, Why,
                       FirstRound && I == 0 ? OracleS : nullptr,
                       FirstRound && I == 0 ? ScheduleS : nullptr);
        RenamedChecked |= Q.Renamed;
      }
      Rep.operation(Ok, strFormat("skeleton %u request %zu: ", Q.Skeleton, I) +
                            Why);
    }
  }
  return St;
}

int runServerMix(const Args &A, Report &Rep) {
  // Set-up: the stream, then one untimed warm-up round on its own server.
  auto Setup = [&](ServerMix &Mix) {
    Timer T;
    Mix = makeServerMix(A.CorpusSeed, A.Seed);
    server::CompileServer Warm(serverOptions());
    std::vector<std::vector<Answer>> Out;
    playRound(Mix, Warm, false, Out);
    return T.seconds();
  };
  SetupTimes Setups(A.Seconds);
  ServerMix Mix;
  Setups.add(Setup(Mix));
  auto SetupAgain = [&] {
    ServerMix Again;
    return Setup(Again);
  };

  std::vector<ColdAnswer> First;
  std::vector<double> Rounds, P50, P99, HitLat, ColdLat, ParseS, CanonS;
  uint64_t Requests = 0;
  std::vector<std::vector<double>> PerSkeleton(Mix.Sessions.size());
  std::vector<std::vector<Answer>> Out;
  std::mt19937_64 Rng(A.Seed);
  uint64_t Optimal = 0;
  double OracleS = 0, ScheduleS = 0;
  server::ServerStats Tiers;
  LayerSampler Layers(Mix.Sessions.size());
  std::vector<std::string> Names;
  for (const std::vector<MixRequest> &Session : Mix.Sessions)
    Names.push_back(strFormat("skeleton %u", Session[0].Skeleton));
  Timer Run;
  while (Rounds.size() < MinRounds || Run.seconds() < A.Seconds) {
    if (!A.Trace && Setups.due(Run.seconds()))
      Setups.add(SetupAgain());
    server::CompileServer Srv(serverOptions());
    std::vector<match::Axiom> Axioms;
    if (A.Trace)
      Axioms = pipelineAxioms(Srv.opt(), {});
    Rounds.push_back(playRound(Mix, Srv, A.Trace, Out));
    double Parse = 0, Canon = 0;
    std::vector<double> Round;
    for (size_t S = 0; S < Out.size(); ++S)
      for (size_t I = 0; I < Out[S].size(); ++I) {
        const Answer &Ans = Out[S][I];
        Round.push_back(Ans.Seconds);
        (I == 0 ? ColdLat : HitLat).push_back(Ans.Seconds);
        if (I == 0)
          PerSkeleton[S].push_back(Ans.Seconds);
        Optimal += isOptimal(Srv.opt(), Ans.R.Result);
        Parse += Ans.ParseS;
        Canon += Ans.CanonS;
      }
    // Each round's percentiles are its own: a round holds MixRequests
    // requests, so at least ten lie beyond its p99.
    P50.push_back(quantile(Round, 0.50));
    P99.push_back(quantile(Round, 0.99));
    Requests += Round.size();
    ParseS.push_back(Parse);
    CanonS.push_back(Canon);
    Tiers = checkRound(A, Mix, Srv, Out, First, Rng, Rep, &OracleS,
                       &ScheduleS);
    if (!A.Trace)
      continue;
    // The layer-by-layer compile of every skeleton, against this round's
    // cold answers and the untraced compileGMA.
    std::vector<size_t> Order(Out.size());
    std::iota(Order.begin(), Order.end(), 0);
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t S : Order) {
      const gma::GMA &G = Out[S][0].G;
      driver::GmaResult R;
      TracedCompile TC;
      double UntracedS = 0;
      // Alternate which goes first, as the paper workloads do.
      for (int Step = 0; Step < 2; ++Step) {
        if ((Step + S + Rounds.size()) % 2 == 0) {
          Timer T;
          R = Srv.opt().compileGMA(G);
          UntracedS = T.seconds();
        } else {
          TC = tracedCompile(Srv.opt(), Axioms, G);
        }
      }
      Layers.add(S, TC, UntracedS);
      Rep.check(tracedMatches(TC, Out[S][0].R.Result) &&
                    sameAnswer(R, Out[S][0].R.Result),
                Names[S] + ": traced run differs from compileGMA");
    }
  }

  if (A.Trace) {
    LayerSums L = Layers.sums();
    ServerLayer SL;
    SL.ParseS = median(ParseS);
    SL.CanonS = median(CanonS);
    SL.HitP50 = median(HitLat);
    SL.ColdP50 = median(ColdLat);
    SL.Cold = Tiers.ColdCompiles;
    SL.Warm = Tiers.WarmCompiles;
    SL.Hits = Tiers.CacheServes;
    SL.Requests = Tiers.Requests;
    reportLayers(Rep, L, 0, 0, OracleS, ScheduleS, SL, Names);
    return 0;
  }
  while (!Setups.complete())
    Setups.add(SetupAgain());
  Rep.metric("setup_s", Setups.median(), "s");
  std::vector<double> Fastest;
  for (const std::vector<double> &V : PerSkeleton)
    Fastest.push_back(fastest(V));
  Rep.metric("compile_s.geomean", geomean(Fastest), "s");
  Rep.metric("pass_s", fastest(Rounds), "s");
  Rep.metric("request_s.p50", fastest(P50), "s");
  Rep.metric("request_s.p99", fastest(P99), "s");
  Rep.metric("requests_per_s", Mix.Requests / fastest(Rounds), "1/s");
  Rep.metric("optimal_share", static_cast<double>(Optimal) / Requests,
             "share");
  double Cycles = 0;
  for (const ColdAnswer &C : First)
    Cycles += C.Cycles;
  Rep.metric("cycles_total", Cycles, "cycles");
  // The property of the mix that decides the latency figures: the share of
  // requests the result cache answers.
  Rep.row("hit_share", static_cast<double>(Tiers.CacheServes) / Tiers.Requests,
          "share");
  Rep.row("requests", Requests, "count");
  Rep.row("rounds", Rounds.size(), "count");
  return 0;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false, HaveData = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--data") {
      A.Data = Val;
      HaveData = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Flag == "--corpus-seed") {
      A.CorpusSeed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      if (!(A.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (Val != "0" && Val != "1")
        return false;
      A.Trace = Val == "1";
      continue;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return HaveWorkload && HaveData && Argc % 2 == 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload "
                 "paper-alu|paper-loops|server-mix --seed N --seconds S "
                 "--trace 0|1 --data DIR [--corpus-seed N]\n");
    return 2;
  }
  Report Rep;
  int Rc;
  if (A.Workload == "paper-alu" || A.Workload == "paper-loops")
    Rc = runPaper(A, Rep);
  else if (A.Workload == "server-mix")
    Rc = runServerMix(A, Rep);
  else {
    std::fprintf(stderr, "pipeline_bench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  if (Rc != 0)
    return Rc;
  if (!A.Trace)
    Rep.metric("peak_rss_mb", peakRssMb(), "MB");
  Rep.row("failed_share",
          static_cast<double>(Rep.failed()) / std::max<uint64_t>(1, Rep.attempted()),
          "share");
  Rep.printJson();
  return Rep.correct() ? 0 : 1;
}
