//===- obs/Obs.h - Tracing, metrics & profiling -----------------*- C++ -*-===//
///
/// \file
/// The unified observability layer for the match/encode/solve pipeline:
///
///  * **Metrics** — monotonic counters, gauges, and log2-bucket histograms
///    registered by name in a process-wide `Registry`. Updates are relaxed
///    atomics; registration is mutex-protected but returns stable
///    references, so hot paths cache the handle (or batch deltas per
///    round/probe, which is what the pipeline does).
///  * **Tracing** — RAII `ObsSpan`s and `instant()` markers recorded into
///    per-thread event buffers. A full buffer chunk is published to a
///    global lock-free stack (one CAS), so the compile server's workers
///    never contend on a mutex while they record. Collected events export as a Chrome `trace_event` JSON file
///    (load in `chrome://tracing` / Perfetto) or a JSONL structured log.
///  * **Logging** — `logf(level, ...)` writes leveled diagnostics to
///    stderr and mirrors them into the event stream.
///
/// Everything is off by default: every entry point first reads one relaxed
/// atomic flag (`obs::enabled()`), so the instrumented pipeline costs a
/// predicted-not-taken branch per span when disabled (<2% end to end; see
/// EXPERIMENTS.md E14). Enable with `obs::configure()` — the `denali` CLI
/// maps `--trace-out=`/`--metrics-out=`/`--log-level=` onto it.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_OBS_OBS_H
#define DENALI_OBS_OBS_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace denali {
namespace obs {

//===----------------------------------------------------------------------===
// Configuration
//===----------------------------------------------------------------------===

/// Observability knobs, wired through driver::Options and the CLI.
struct ObsConfig {
  /// Master switch. When false every obs entry point is a near-free no-op
  /// (one relaxed atomic load).
  bool Enabled = false;
  /// Whether completed events (spans, instants, log mirrors) are buffered
  /// in memory for later export. Metrics — counters, gauges, histograms,
  /// the span.<name>.us duration feeds — and installed RequestTraces work
  /// regardless. The compile server's always-on telemetry turns this off:
  /// a long-lived process with no exporter draining the buffers must not
  /// accumulate events without bound (and skipping the per-span event
  /// construction is most of the difference between "tracing" and
  /// "monitoring" overhead).
  bool Events = true;
  /// Diagnostics verbosity for logf(): 0 = silent, 1 = per-GMA summaries,
  /// 2 = per-round/per-probe detail.
  int LogLevel = 0;
  /// If nonempty, exportConfigured() writes a Chrome trace_event JSON file
  /// here (the `--trace-out=` flag).
  std::string TraceOut;
  /// If nonempty, exportConfigured() writes the collected events as JSONL
  /// (one structured event object per line) here.
  std::string JsonlOut;
  /// If nonempty, exportConfigured() writes the plain-text metrics summary
  /// here (the `--metrics-out=` flag).
  std::string MetricsOut;
};

namespace detail {
extern std::atomic<bool> EnabledFlag;
extern std::atomic<bool> EventsFlag;
extern std::atomic<int> LogLevelValue;
} // namespace detail

/// True once configure() enabled the layer. Relaxed: callers use it as a
/// fast-path gate, not for synchronization.
inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}

/// True when the layer is enabled AND event buffering is on (see
/// ObsConfig::Events). When false, spans still time themselves into their
/// duration histograms and request-scoped events still land in an installed
/// RequestTrace, but nothing accumulates in the shared trace buffers.
inline bool eventsEnabled() {
  return detail::EventsFlag.load(std::memory_order_relaxed);
}

/// The configured log level (readable without locking).
inline int logLevel() {
  return detail::LogLevelValue.load(std::memory_order_relaxed);
}

/// Installs \p C as the process-wide configuration. Idempotent; callable
/// again to reconfigure (tests toggle the layer per case).
void configure(const ObsConfig &C);

/// The current configuration (by value; the global copy is mutex-guarded).
ObsConfig config();

/// Nanoseconds since the process's trace epoch (steady_clock; the epoch is
/// latched on first use so timestamps are comparable across threads).
int64_t nowNs();

//===----------------------------------------------------------------------===
// Metrics: counters, gauges, histograms, and the registry
//===----------------------------------------------------------------------===

/// A monotonic counter. Thread-safe (relaxed increments).
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t get() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A last-value gauge with a monotone-max companion. Thread-safe.
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  /// Raises the gauge to \p N if larger (lock-free CAS loop).
  void noteMax(int64_t N) {
    int64_t Cur = V.load(std::memory_order_relaxed);
    while (N > Cur &&
           !V.compare_exchange_weak(Cur, N, std::memory_order_relaxed)) {
    }
  }
  int64_t get() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// A log2-bucket histogram over uint64 samples (bucket B counts samples in
/// [2^B, 2^{B+1})). Thread-safe; count/sum/min/max are exact, the
/// distribution is bucketed.
class Histogram {
public:
  void record(uint64_t Sample);
  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// ~0 when empty.
  uint64_t min() const { return Min.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  /// Estimated percentile (\p Q in [0,1]) from the log2 buckets: the upper
  /// edge of the bucket holding the Q-quantile sample, clamped to
  /// [min, max]. 0 when empty.
  uint64_t percentile(double Q) const;
  void reset();

private:
  std::atomic<uint64_t> N{0}, Sum{0}, Min{~0ull}, Max{0};
  std::array<std::atomic<uint64_t>, 64> Buckets{};
};

/// A sliding-window log2 histogram: like Histogram, but samples expire after
/// the window elapses, so snapshots answer "what did latency look like over
/// the last minute" for a long-lived server rather than since process start.
///
/// Implementation: a ring of epoch-tagged slots, each covering
/// window/(slots-1) of wall time. record() claims the current slot with a
/// CAS when its epoch is stale (resetting it) and then adds with relaxed
/// atomics — no locks anywhere, so pool workers can record on the hot path.
/// A racing record() at a slot boundary may land in a slot being reset and
/// be dropped; that is acceptable for monitoring-grade windows. snapshot()
/// merges the in-window slots into an immutable Snapshot.
class WindowedHistogram {
public:
  static constexpr int64_t DefaultWindowNs = 60ll * 1000 * 1000 * 1000;

  explicit WindowedHistogram(int64_t WindowNs = DefaultWindowNs);

  /// An immutable merged view of the in-window slots.
  struct Snapshot {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = 0;
    uint64_t Max = 0;
    std::array<uint64_t, 64> Buckets{};
    int64_t WindowNs = 0;
    double avg() const {
      return Count ? static_cast<double>(Sum) / static_cast<double>(Count)
                   : 0.0;
    }
    /// Same estimator as Histogram::percentile (\p Q in [0,1]).
    uint64_t percentile(double Q) const;
  };

  void record(uint64_t Sample);
  Snapshot snapshot() const;
  /// Deterministic-time seams: record()/snapshot() delegate here with
  /// nowNs(). Tests drive rotation edge cases (idle gaps longer than the
  /// whole ring, snapshot racing a rotation) with explicit timestamps
  /// instead of real sleeps. \p NowNs is on the nowNs() clock.
  void recordAt(int64_t NowNs, uint64_t Sample);
  Snapshot snapshotAt(int64_t NowNs) const;
  int64_t windowNs() const { return WindowNsVal; }
  void reset();

private:
  static constexpr int NumSlots = 8;
  struct Slot {
    std::atomic<int64_t> Epoch{-1};
    std::atomic<uint64_t> N{0}, Sum{0}, Min{~0ull}, Max{0};
    std::array<std::atomic<uint64_t>, 64> Buckets{};
  };

  Slot &slotFor(int64_t Now);

  const int64_t WindowNsVal;
  const int64_t SlotNs;
  std::array<Slot, NumSlots> Slots;
};

/// The process-wide metric registry: one flat, dot-separated namespace
/// (match.*, encode.*, sat.*, search.*, span.*). Registration is lazy and
/// mutex-protected; the returned references are stable for the process
/// lifetime, so callers may cache them.
class Registry {
public:
  static Registry &global();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);
  /// A sliding-window histogram (60s window by default). Same lazy
  /// registration contract as histogram().
  WindowedHistogram &windowed(const std::string &Name);

  /// The counter's current value, or 0 when it was never registered
  /// (lookup without registering — for tests and reports).
  uint64_t counterValue(const std::string &Name) const;

  /// Every registered counter whose name starts with \p Prefix, with its
  /// current value, sorted by name. For prefix families like
  /// `match.axiom.<id>.*` where the member names are data-dependent (the
  /// server's top-axiom self-time table enumerates them this way).
  std::vector<std::pair<std::string, uint64_t>>
  countersWithPrefix(const std::string &Prefix) const;

  /// The plain-text metrics summary: one line per metric. Enumeration order
  /// is deterministic — sorted by name within each kind, kinds in the fixed
  /// order counter/gauge/hist/whist — so two captures diff cleanly:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   hist <name> count=<n> sum=<s> min=<m> max=<x> avg=<a> p50= p90= p99=
  ///   whist <name> count=... p50= p90= p99= window_s=<w>
  std::string summaryText() const;

  /// The same snapshot as one JSON object fragment (no outer braces):
  ///   "counters":{...},"gauges":{...},"hists":{...},"whists":{...}
  /// Keys are sorted; used by MetricsFlusher for the periodic JSONL feed.
  std::string snapshotJson() const;

  /// Zeroes every registered metric (registrations survive). For tests and
  /// the benches' phase boundaries.
  void resetAll();

private:
  struct Impl;
  Impl &impl() const;
};

//===----------------------------------------------------------------------===
// Tracing: events, spans, per-thread buffers
//===----------------------------------------------------------------------===

enum class EventKind : uint8_t { Span, Instant, Log };

/// One recorded trace event. Span names are expected to be string literals
/// (the pointer is stored, not the characters).
struct Event {
  EventKind Kind = EventKind::Span;
  uint8_t Level = 0;   ///< logf() level for Log events.
  uint16_t Depth = 0;  ///< Span nesting depth on the recording thread.
  uint32_t Tid = 0;    ///< Sequential per-thread id (1 = first thread seen).
  const char *Name = ""; ///< Static string; Log events use Msg instead.
  uint64_t Req = 0;    ///< Request id stamped from the active RequestScope
                       ///< (0 = no request context).
  int64_t StartNs = 0; ///< Since the trace epoch.
  int64_t DurNs = 0;   ///< 0 for instants/logs.
  std::string Args;    ///< Preformatted JSON object fragment ("\"k\":5,...").
  std::string Msg;     ///< Log message (Log events only).
};

//===----------------------------------------------------------------------===
// Request contexts
//===----------------------------------------------------------------------===
//
// The compile server mints one RequestId per request and opens a
// RequestScope around the whole pipeline; every event recorded under the
// scope (parse, canonicalize, cache probe, saturate, universe, search,
// encode) is stamped with the id, so a single request's full stage
// breakdown can be extracted from the shared trace. Scopes are thread-local
// and nestable.

/// An optional per-request event retainer. When installed via RequestScope,
/// every event recorded under the scope is *also* copied here (in addition
/// to the shared trace buffers), so the server can dump a slow request's
/// span tree without draining the global stream. Mutex-protected: requests
/// record a few hundred spans at most, far off the disabled-obs hot path.
class RequestTrace {
public:
  void append(const Event &E);
  /// All retained events, sorted parents-before-children.
  std::vector<Event> events() const;
  /// A human-readable indented span tree (for slow-request logs).
  std::string spanTreeText() const;

private:
  mutable std::mutex Mu;
  std::vector<Event> Retained;
};

/// Mints a fresh process-unique request id (1-based, atomic).
uint64_t nextRequestId();

/// The calling thread's active request id (0 when none).
uint64_t currentRequestId();

/// RAII request context: installs \p Id (and optionally a RequestTrace) as
/// the calling thread's active request, restoring the previous context on
/// destruction. Cheap enough to use unconditionally (two thread-local
/// stores each way).
class RequestScope {
public:
  explicit RequestScope(uint64_t Id, RequestTrace *Trace = nullptr);
  ~RequestScope();

  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

private:
  uint64_t PrevId;
  RequestTrace *PrevTrace;
};

/// Publishes the calling thread's partially filled event chunk so a
/// subsequent collectEvents() sees it. Called automatically when a chunk
/// fills and at thread exit.
void flushThreadEvents();

/// Flushes the calling thread, then drains every published chunk, returning
/// all events sorted by start time. Events of still-running foreign threads
/// that have not filled a chunk are not visible — join workers first (the
/// pipeline's pools are joined before any export).
std::vector<Event> collectEvents();

/// Discards all buffered events (calling thread + published chunks).
void clearEvents();

/// Records an instant marker. \p Args is a preformatted JSON object
/// fragment without braces (empty for none).
void instant(const char *Name, std::string Args = std::string());

/// Leveled diagnostic: printf-formats to stderr when logLevel() >= Level
/// and mirrors the line into the event stream when tracing is enabled.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void logf(int Level, const char *Fmt, ...);

/// A RAII trace span. Construction latches the start time; destruction
/// feeds the span's duration into the `span.<name>.us` histogram and — when
/// the event will be retained anywhere (event buffering on, or a
/// RequestTrace installed on this thread) — records a complete event. All
/// methods are no-ops when the layer is disabled; active() is additionally
/// false when the event would be dropped, so callers skip arg-building in
/// metrics-only mode.
class ObsSpan {
public:
  explicit ObsSpan(const char *Name);
  ~ObsSpan();

  ObsSpan(const ObsSpan &) = delete;
  ObsSpan &operator=(const ObsSpan &) = delete;

  /// Attaches a key/value argument rendered into the Chrome trace's "args".
  ObsSpan &arg(const char *Key, uint64_t V);
  ObsSpan &arg(const char *Key, int64_t V);
  ObsSpan &arg(const char *Key, unsigned V) {
    return arg(Key, static_cast<uint64_t>(V));
  }
  ObsSpan &arg(const char *Key, int V) {
    return arg(Key, static_cast<int64_t>(V));
  }
  ObsSpan &arg(const char *Key, double V);
  /// \p V is JSON-escaped.
  ObsSpan &arg(const char *Key, const char *V);

  bool active() const { return Retain; }

private:
  bool Active;          ///< Layer enabled at construction.
  bool Retain = false;  ///< The completed event goes somewhere.
  const char *Name = nullptr;
  int64_t StartNs = 0;
  std::string Args;
};

/// Times a scope and feeds the elapsed microseconds into \p H (a registry
/// histogram). The histogram variant of support::Timer: same steady clock,
/// but the measurement lands in the metrics summary instead of a local.
class ScopedTimer {
public:
  explicit ScopedTimer(Histogram &H) : H(H), StartNs(nowNs()) {}
  ~ScopedTimer() {
    H.record(static_cast<uint64_t>((nowNs() - StartNs) / 1000));
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  Histogram &H;
  int64_t StartNs;
};

//===----------------------------------------------------------------------===
// Exporters
//===----------------------------------------------------------------------===

/// Renders \p Events as a Chrome trace_event JSON document
/// ({"traceEvents": [...]}; "X" for spans, "i" for instants/logs,
/// microsecond timestamps).
std::string chromeTraceJson(const std::vector<Event> &Events);

/// Renders \p Events as JSONL: one self-contained JSON object per line.
std::string jsonlText(const std::vector<Event> &Events);

/// Escapes \p S for embedding in a JSON string literal.
std::string jsonEscape(const std::string &S);

/// Writes \p Text to \p Path. \returns false (with a stderr note) on I/O
/// failure.
bool writeTextFile(const std::string &Path, const std::string &Text);

/// Collects events once and writes every output the current configuration
/// names (TraceOut / JsonlOut / MetricsOut). \returns true if every
/// requested file was written.
bool exportConfigured();

/// A background metrics flusher for long-lived processes: every IntervalSec
/// it appends one JSONL line — {"ts_ms":..., <Registry::snapshotJson()>} —
/// to Path, rotating Path -> Path.1 -> ... -> Path.MaxFiles when the file
/// grows past MaxBytes. configure() never spawns threads (tests reconfigure
/// constantly), so the owner (the compile server) starts/stops this
/// explicitly; stop() performs a final flush.
class MetricsFlusher {
public:
  struct Options {
    std::string Path;        ///< JSONL output; empty disables start().
    double IntervalSec = 0;  ///< <= 0 disables start().
    size_t MaxBytes = 8u << 20; ///< Rotation threshold.
    int MaxFiles = 3;        ///< Rotated generations kept (Path.1..Path.N).
  };

  MetricsFlusher() = default;
  ~MetricsFlusher() { stop(); }

  MetricsFlusher(const MetricsFlusher &) = delete;
  MetricsFlusher &operator=(const MetricsFlusher &) = delete;

  /// Starts the background thread. No-op when already running or when the
  /// options disable flushing.
  void start(const Options &O);
  /// Final flush + join. Idempotent.
  void stop();
  /// Appends one snapshot line now (also used by the background loop).
  /// \returns false on I/O failure. Public so tests can drive rotation
  /// without waiting out the interval.
  bool flushOnce();
  /// Lines written so far.
  uint64_t flushCount() const {
    return Flushes.load(std::memory_order_relaxed);
  }

private:
  void rotateIfNeeded(long Size);

  Options Opts;
  std::thread Worker;
  std::mutex Mu;
  std::condition_variable Cv;
  bool StopFlag = false;
  bool Running = false;
  std::atomic<uint64_t> Flushes{0};
};

} // namespace obs
} // namespace denali

#endif // DENALI_OBS_OBS_H
