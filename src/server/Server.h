//===- server/Server.h - Long-lived concurrent compile service --*- C++ -*-===//
///
/// \file
/// Denali as a service: a long-lived CompileServer that accepts many GMA
/// compile requests concurrently on a support::ThreadPool and answers
/// each one from one of two tiers:
///
///   1. **Result cache** — canonical GMA text -> GmaResult (one LRU under
///      one mutex and a --cache-bytes cap). An alpha-renamed /
///      operand-commuted / source-renamed duplicate of any previously
///      compiled GMA is served by a pure renaming of the cached program:
///      no e-graph, no SAT.
///   2. **Cold compile** — the ordinary driver pipeline
///      (Superoptimizer::compileGMA), after which the result is cached.
///
/// Concurrency model: compiles are read-only on the shared ir::Context
/// (the driver interns every term at parse/translate time), so they run
/// lock-free on worker threads; only request *parsing* interns and is
/// serialized behind one front-end mutex. Canonicalization is a pure
/// read and needs no lock. Reads may overlap another request's parse:
/// the term and operator tables never move an element when they grow,
/// and their sizes are safe to read concurrently (support/StableVector.h).
///
/// Wire protocol (line-oriented s-exprs; see serve()):
///   -> (gma <name> (assign t <term>) ...)       compile one GMA
///   -> (stats)                                  tier and cache counters
///   -> (stats-full)                             + live latency windows
///   -> (quit)                                   shut down
///   <- (ok <name> :cycles N :source cold|hit :seconds S [:program "..."])
///   <- (error "message")                        (see formatResponse())
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SERVER_SERVER_H
#define DENALI_SERVER_SERVER_H

#include "driver/Superoptimizer.h"
#include "obs/Obs.h"
#include "server/Cache.h"
#include "server/Canon.h"
#include "support/ThreadPool.h"

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace denali {
namespace server {

struct ServerOptions {
  /// Pipeline configuration for the embedded Superoptimizer. Fixed for
  /// the server's lifetime, so the cache, which belongs to this server
  /// alone, never holds a result of other options.
  driver::Options Pipeline;
  /// Worker threads compiling requests concurrently.
  unsigned Threads = 2;
  /// Result-cache capacity in bytes. 0 disables the cache — every
  /// request compiles cold, byte-for-byte the pre-server driver behavior.
  size_t CacheBytes = size_t(64) << 20;
  /// Attach the emitted program text to protocol responses.
  bool PrintPrograms = false;
  /// Always-on telemetry: per-request ids + spans, sliding-window latency
  /// histograms per tier, in-flight/queue gauges. The constructor enables
  /// the obs layer (metrics only, no exporter outputs) if it is not already
  /// configured. `--obs-off` clears this for overhead measurements.
  bool Telemetry = true;
  /// When > 0, a request slower than this many milliseconds increments
  /// server.slow_requests and dumps its full span tree via obs::logf.
  double SlowMs = 0;
  /// When > 0, a background obs::MetricsFlusher appends a JSONL metrics
  /// snapshot to MetricsFlushPath every MetricsFlushSec seconds.
  double MetricsFlushSec = 0;
  std::string MetricsFlushPath = "denali_metrics.jsonl";
  /// Rotation threshold for the flusher (path -> path.1 -> path.2 ...).
  size_t MetricsFlushMaxBytes = 8u << 20;
};

/// Which tier answered a request.
enum class ResultSource { Cold, CacheHit };

const char *resultSourceName(ResultSource S);

struct ServerResponse {
  driver::GmaResult Result;
  ResultSource Source = ResultSource::Cold;
  double Seconds = 0; ///< Wall time inside the server for this request.
};

/// Aggregate server statistics.
struct ServerStats {
  uint64_t Requests = 0;
  uint64_t ParseErrors = 0;
  uint64_t ColdCompiles = 0;
  /// Always 0: the tier that counted here, a memo of saturated e-graphs,
  /// is gone. Kept because the pipeline benchmark (bench_pipeline) reads
  /// it; it goes with the next change to that benchmark.
  uint64_t WarmCompiles = 0;
  uint64_t CacheServes = 0;
  uint64_t SlowRequests = 0;
  int64_t InFlight = 0;
  CacheStats ResultCache;
};

class CompileServer {
public:
  explicit CompileServer(ServerOptions Opts = ServerOptions());
  ~CompileServer();

  driver::Superoptimizer &opt() { return Opt; }
  const driver::Superoptimizer &opt() const { return Opt; }
  const ServerOptions &options() const { return SOpts; }

  /// Compiles one pre-interned GMA: a cache hit, else a cold compile.
  /// Thread-safe; this is the per-request worker body.
  ServerResponse compileGma(const gma::GMA &G);

  /// Parses (serialized behind the front-end mutex) then compiles.
  /// On parse failure the response's Result.Error is set and
  /// Result.Gma.Name is empty.
  ServerResponse compileText(const std::string &Text);

  /// Bulk mode: compiles a batch of GMA texts, grouping same-skeleton
  /// requests so each canonical goal skeleton is compiled exactly once
  /// (the group's leader compiles; followers are served from the cache
  /// entry it fills). Responses are returned in input order. Parsing is
  /// serialized; group leaders run concurrently on the pool.
  std::vector<ServerResponse> compileBulk(const std::vector<std::string> &Texts);

  /// Reads s-expr requests from \p In until EOF or (quit), writing one
  /// response line per request to \p Out in request order. Requests are
  /// dispatched to the pool as they parse, so up to Threads compiles
  /// overlap. \returns the number of failed requests.
  int serve(std::istream &In, std::ostream &Out);

  ServerStats stats() const;
  /// The (stats) verb / --stats report, as a one-line s-expr.
  std::string statsText() const;
  /// The (stats-full) verb: statsText()'s counters plus live telemetry —
  /// in-flight/queue gauges and sliding-window latency percentiles per
  /// tier, snapshot at call time.
  std::string statsFullText() const;

  /// The periodic flusher (exposed for tests; started by the constructor
  /// when MetricsFlushSec > 0).
  obs::MetricsFlusher &metricsFlusher() { return Flusher; }

private:
  /// What a hit serves of its producer's cold answer.
  struct CachedResult {
    /// In the producing request's name space, without the GMA, which
    /// every hit replaces with the request's, and without
    /// Matching.PerAxiom, whose readers ran at the cold compile.
    driver::GmaResult Result;
    /// The producing request's renaming; its Text moved into the key.
    CanonicalGma Canon;
  };

  /// The compile body (cache, else cold), run under the request's
  /// RequestScope.
  ServerResponse compileGmaTiered(const gma::GMA &G, uint64_t Req);
  /// Records per-request telemetry (windowed latencies, slow-request log)
  /// once the request's scope has closed.
  void noteRequestDone(const ServerResponse &R, uint64_t Req,
                       obs::RequestTrace *Trace);

  ServerOptions SOpts;
  driver::Superoptimizer Opt;
  support::ThreadPool Pool;
  std::mutex FrontEndMu; ///< Serializes interning (parse) on Opt's Context.
  LruCache<CachedResult> Results;
  std::atomic<uint64_t> Requests{0}, ParseErrors{0}, ColdCompiles{0},
      CacheServes{0}, SlowRequests{0};
  std::atomic<int64_t> InFlight{0};
  // Cached metric handles: registry references are stable for the process
  // lifetime, so the per-request hot path never takes the registry mutex.
  obs::WindowedHistogram &WinAll, &WinCold, &WinHit;
  obs::Gauge &InFlightGauge, &InFlightMaxGauge, &QueueDepthGauge;
  obs::Counter &RequestCounter, &ParseErrorCounter, &SlowCounter;
  obs::MetricsFlusher Flusher;
};

/// The protocol's answer line for \p R, without a newline:
/// `(ok <name> :cycles N :source cold|hit :seconds S)`, with
/// ` :program "..."` before the ')' when \p PrintProgram, or
/// `(error "message")`. Both serve() and `denali_server --bulk` print it.
std::string formatResponse(const ServerResponse &R, bool PrintProgram);

/// Reads the next request form from \p In as serve() does: lines
/// accumulate until their parentheses balance (';' comments to the end of
/// a line); blank and comment lines between forms are skipped, and a form
/// EOF leaves open is returned for its reader to report. \returns false
/// when no form is left. `denali_server --bulk` reads its file with it.
bool readForm(std::istream &In, std::string &Form);

/// Renames a cached result (in the \p From request's name space) into the
/// \p To request's name space: program inputs via From.VarMap ∘ ToCanon
/// .VarMap⁻¹, outputs positionally onto \p To's targets, program and GMA
/// names to \p To's. Exposed for tests.
driver::GmaResult renameResult(const driver::GmaResult &Cached,
                               const CanonicalGma &From, const gma::GMA &To,
                               const CanonicalGma &ToCanon);

} // namespace server
} // namespace denali

#endif // DENALI_SERVER_SERVER_H
