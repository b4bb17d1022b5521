//===- server/Server.h - Long-lived concurrent compile service --*- C++ -*-===//
///
/// \file
/// Denali as a service: a long-lived CompileServer that accepts many GMA
/// compile requests concurrently on a support::ThreadPool and answers
/// them through three accelerating tiers:
///
///   1. **Result cache** — canonical-GMA -> GmaResult (sharded LRU under
///      a --cache-bytes cap). An alpha-renamed / operand-commuted /
///      source-renamed duplicate of any previously compiled GMA is served
///      by a pure renaming of the cached program: no e-graph, no SAT.
///   2. **Warm-graph memo** — canonical goal skeleton -> SaturatedGma.
///      A request that matches a warm entry (same canonical text and
///      match-relevant options, but e.g. different search budgets) skips
///      saturation entirely and reuses the frozen path-compressed e-graph
///      snapshot for universe construction + the SAT ladder. The snapshot
///      is shared, not cloned: after compressPaths() every const query is
///      a pure read, so any number of concurrent requests may compile
///      against one graph.
///   3. **Cold compile** — the ordinary driver pipeline, after which both
///      tiers are populated.
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
///   -> (stats)                                  cache/memo counters
///   -> (stats-full)                             + live latency windows
///   -> (quit)                                   shut down
///   <- (ok <name> :cycles N :source cold|warm|hit :program "...")
///   <- (error "message")
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
  /// the server's lifetime; both cache keys fingerprint it (once, at
  /// construction), so entries can never leak across configurations.
  driver::Options Pipeline;
  /// Worker threads compiling requests concurrently.
  unsigned Threads = 2;
  /// Result-cache capacity in bytes. 0 disables result caching AND the
  /// warm-graph memo — every request compiles cold, byte-for-byte the
  /// pre-server driver behavior.
  size_t CacheBytes = size_t(64) << 20;
  /// Warm-graph memo capacity in entries (saturated e-graphs are large;
  /// they are capped by count, not bytes). 0 disables the memo.
  size_t WarmGraphs = 64;
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
enum class ResultSource { Cold, WarmGraph, CacheHit };

const char *resultSourceName(ResultSource S);

struct ServerResponse {
  driver::GmaResult Result;
  ResultSource Source = ResultSource::Cold;
  double Seconds = 0; ///< Wall time inside the server for this request.
};

/// Aggregate server statistics (see also CacheStats per tier).
struct ServerStats {
  uint64_t Requests = 0;
  uint64_t ParseErrors = 0;
  uint64_t ColdCompiles = 0;
  uint64_t WarmCompiles = 0;
  uint64_t CacheServes = 0;
  uint64_t SlowRequests = 0;
  int64_t InFlight = 0;
  CacheStats ResultCache;
  CacheStats GraphMemo;
};

class CompileServer {
public:
  explicit CompileServer(ServerOptions Opts = ServerOptions());
  ~CompileServer();

  driver::Superoptimizer &opt() { return Opt; }
  const driver::Superoptimizer &opt() const { return Opt; }
  const ServerOptions &options() const { return SOpts; }

  /// Compiles one pre-interned GMA through the cache tiers. Thread-safe;
  /// this is the per-request worker body.
  ServerResponse compileGma(const gma::GMA &G);

  /// Parses (serialized behind the front-end mutex) then compiles.
  /// On parse failure the response's Result.Error is set and
  /// Result.Gma.Name is empty.
  ServerResponse compileText(const std::string &Text);

  /// Bulk mode: compiles a batch of GMA texts, grouping same-skeleton
  /// requests so each canonical goal skeleton is saturated exactly once
  /// (the batch's leader compiles; followers are served from the tiers
  /// it fills). Responses are returned in input order. Parsing is
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
  struct CachedResult {
    driver::GmaResult Result; ///< In the producing request's name space.
    CanonicalGma Canon;       ///< The producing request's renaming.
  };
  struct CachedGraph {
    driver::SaturatedGma Saturated;
    CanonicalGma Canon; ///< The saturating request's renaming.
  };

  ServerResponse serveCached(const CachedResult &Hit, const gma::GMA &G,
                             const CanonicalGma &C, double Seconds);
  /// The tiered compile body, run under the request's RequestScope.
  ServerResponse compileGmaTiered(const gma::GMA &G, uint64_t Req);
  /// Records per-request telemetry (windowed latencies, slow-request log)
  /// once the request's scope has closed.
  void noteRequestDone(const ServerResponse &R, uint64_t Req,
                       obs::RequestTrace *Trace);

  ServerOptions SOpts;
  driver::Superoptimizer Opt;
  /// The result and match fingerprints of Opt's options, formatted and
  /// hashed once: a server's options never change, so a request hashes
  /// only its canonical text.
  const KeySeed ResultKeys, GraphKeys;
  support::ThreadPool Pool;
  std::mutex FrontEndMu; ///< Serializes interning (parse) on Opt's Context.
  ShardedLruCache<CachedResult> Results;
  ShardedLruCache<CachedGraph> Graphs;
  std::atomic<uint64_t> Requests{0}, ParseErrors{0}, ColdCompiles{0},
      WarmCompiles{0}, CacheServes{0}, SlowRequests{0};
  std::atomic<int64_t> InFlight{0};
  // Cached metric handles: registry references are stable for the process
  // lifetime, so the per-request hot path never takes the registry mutex.
  obs::WindowedHistogram &WinAll, &WinCold, &WinWarm, &WinHit;
  obs::Gauge &InFlightGauge, &InFlightMaxGauge, &QueueDepthGauge;
  obs::Counter &RequestCounter, &ParseErrorCounter, &SlowCounter;
  obs::MetricsFlusher Flusher;
};

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
