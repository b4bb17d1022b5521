//===- obs/Obs.cpp --------------------------------------------------------===//

#include "obs/Obs.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <memory>
#include <mutex>

using namespace denali;
using namespace denali::obs;

//===----------------------------------------------------------------------===
// Configuration
//===----------------------------------------------------------------------===

std::atomic<bool> obs::detail::EnabledFlag{false};
std::atomic<bool> obs::detail::EventsFlag{false};
std::atomic<int> obs::detail::LogLevelValue{0};

namespace {

std::mutex &configMutex() {
  static std::mutex M;
  return M;
}

ObsConfig &configStorage() {
  static ObsConfig C;
  return C;
}

} // namespace

void obs::configure(const ObsConfig &C) {
  {
    std::lock_guard<std::mutex> Lock(configMutex());
    configStorage() = C;
  }
  // Latch the epoch before the flag flips so the first span sees it.
  nowNs();
  detail::LogLevelValue.store(C.LogLevel, std::memory_order_relaxed);
  detail::EventsFlag.store(C.Enabled && C.Events, std::memory_order_relaxed);
  detail::EnabledFlag.store(C.Enabled, std::memory_order_relaxed);
}

ObsConfig obs::config() {
  std::lock_guard<std::mutex> Lock(configMutex());
  return configStorage();
}

int64_t obs::nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

//===----------------------------------------------------------------------===
// Histogram
//===----------------------------------------------------------------------===

namespace {

unsigned log2Bucket(uint64_t Sample) {
  unsigned B = 0;
  while (Sample > 1) {
    Sample >>= 1;
    ++B;
  }
  return B;
}

/// The shared percentile estimator: the Q-quantile sample's bucket upper
/// edge, clamped to the exact [Min, Max] the histogram tracked.
uint64_t bucketPercentile(const std::array<uint64_t, 64> &Buckets,
                          uint64_t Count, uint64_t Min, uint64_t Max,
                          double Q) {
  if (Count == 0)
    return 0;
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Count)));
  if (Rank < 1)
    Rank = 1;
  if (Rank > Count)
    Rank = Count;
  uint64_t Cum = 0;
  for (unsigned B = 0; B < 64; ++B) {
    Cum += Buckets[B];
    if (Cum >= Rank) {
      uint64_t Edge = B >= 63 ? Max : (1ull << (B + 1)) - 1;
      return std::max(Min, std::min(Edge, Max));
    }
  }
  return Max;
}

} // namespace

uint64_t Histogram::percentile(double Q) const {
  std::array<uint64_t, 64> Snap{};
  for (unsigned B = 0; B < 64; ++B)
    Snap[B] = Buckets[B].load(std::memory_order_relaxed);
  uint64_t Cnt = count();
  return bucketPercentile(Snap, Cnt, Cnt ? min() : 0, max(), Q);
}

void Histogram::record(uint64_t Sample) {
  N.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Sample, std::memory_order_relaxed);
  uint64_t Cur = Min.load(std::memory_order_relaxed);
  while (Sample < Cur &&
         !Min.compare_exchange_weak(Cur, Sample, std::memory_order_relaxed)) {
  }
  Cur = Max.load(std::memory_order_relaxed);
  while (Sample > Cur &&
         !Max.compare_exchange_weak(Cur, Sample, std::memory_order_relaxed)) {
  }
  Buckets[log2Bucket(Sample)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::reset() {
  N.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Min.store(~0ull, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===
// WindowedHistogram
//===----------------------------------------------------------------------===

WindowedHistogram::WindowedHistogram(int64_t WindowNs)
    : WindowNsVal(WindowNs > 0 ? WindowNs : DefaultWindowNs),
      SlotNs(std::max<int64_t>(1, WindowNsVal / (NumSlots - 1))) {}

WindowedHistogram::Slot &WindowedHistogram::slotFor(int64_t Now) {
  int64_t E = Now / SlotNs;
  Slot &S = Slots[static_cast<size_t>(E % NumSlots)];
  int64_t Cur = S.Epoch.load(std::memory_order_acquire);
  while (Cur < E) {
    if (S.Epoch.compare_exchange_weak(Cur, E, std::memory_order_acq_rel)) {
      // Won the rotation: the slot's previous epoch just expired out of the
      // window, so wipe it for the new one. A racing record() that already
      // saw the new epoch may lose its sample to this reset — one sample at
      // a slot boundary, acceptable for a monitoring window.
      S.N.store(0, std::memory_order_relaxed);
      S.Sum.store(0, std::memory_order_relaxed);
      S.Min.store(~0ull, std::memory_order_relaxed);
      S.Max.store(0, std::memory_order_relaxed);
      for (auto &B : S.Buckets)
        B.store(0, std::memory_order_relaxed);
      break;
    }
  }
  return S;
}

void WindowedHistogram::record(uint64_t Sample) { recordAt(nowNs(), Sample); }

void WindowedHistogram::recordAt(int64_t Now, uint64_t Sample) {
  Slot &S = slotFor(Now);
  S.N.fetch_add(1, std::memory_order_relaxed);
  S.Sum.fetch_add(Sample, std::memory_order_relaxed);
  uint64_t Cur = S.Min.load(std::memory_order_relaxed);
  while (Sample < Cur && !S.Min.compare_exchange_weak(
                             Cur, Sample, std::memory_order_relaxed)) {
  }
  Cur = S.Max.load(std::memory_order_relaxed);
  while (Sample > Cur && !S.Max.compare_exchange_weak(
                             Cur, Sample, std::memory_order_relaxed)) {
  }
  S.Buckets[log2Bucket(Sample)].fetch_add(1, std::memory_order_relaxed);
}

WindowedHistogram::Snapshot WindowedHistogram::snapshot() const {
  return snapshotAt(nowNs());
}

WindowedHistogram::Snapshot WindowedHistogram::snapshotAt(int64_t Now) const {
  Snapshot Out;
  Out.WindowNs = WindowNsVal;
  const int64_t CurE = Now / SlotNs;
  const int64_t MinE = CurE - (NumSlots - 2);
  uint64_t Min = ~0ull;
  for (const Slot &S : Slots) {
    int64_t E = S.Epoch.load(std::memory_order_acquire);
    if (E < MinE || E > CurE)
      continue;
    uint64_t N = S.N.load(std::memory_order_relaxed);
    if (!N)
      continue;
    Out.Count += N;
    Out.Sum += S.Sum.load(std::memory_order_relaxed);
    Min = std::min(Min, S.Min.load(std::memory_order_relaxed));
    Out.Max = std::max(Out.Max, S.Max.load(std::memory_order_relaxed));
    for (unsigned B = 0; B < 64; ++B)
      Out.Buckets[B] += S.Buckets[B].load(std::memory_order_relaxed);
  }
  Out.Min = Out.Count ? Min : 0;
  return Out;
}

uint64_t WindowedHistogram::Snapshot::percentile(double Q) const {
  return bucketPercentile(Buckets, Count, Min, Max, Q);
}

void WindowedHistogram::reset() {
  for (Slot &S : Slots) {
    S.Epoch.store(-1, std::memory_order_relaxed);
    S.N.store(0, std::memory_order_relaxed);
    S.Sum.store(0, std::memory_order_relaxed);
    S.Min.store(~0ull, std::memory_order_relaxed);
    S.Max.store(0, std::memory_order_relaxed);
    for (auto &B : S.Buckets)
      B.store(0, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===
// Registry
//===----------------------------------------------------------------------===

struct Registry::Impl {
  mutable std::mutex Mutex;
  // Node-based maps: references stay stable across registrations.
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> Windows;
};

Registry &Registry::global() {
  static Registry R;
  return R;
}

Registry::Impl &Registry::impl() const {
  static Impl TheImpl;
  return TheImpl;
}

Counter &Registry::counter(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  auto &Slot = I.Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &Registry::gauge(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  auto &Slot = I.Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &Registry::histogram(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  auto &Slot = I.Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

WindowedHistogram &Registry::windowed(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  auto &Slot = I.Windows[Name];
  if (!Slot)
    Slot = std::make_unique<WindowedHistogram>();
  return *Slot;
}

uint64_t Registry::counterValue(const std::string &Name) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  auto It = I.Counters.find(Name);
  return It == I.Counters.end() ? 0 : It->second->get();
}

std::vector<std::pair<std::string, uint64_t>>
Registry::countersWithPrefix(const std::string &Prefix) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  std::vector<std::pair<std::string, uint64_t>> Out;
  // std::map iterates in name order, so the result is already sorted; the
  // prefix range ends at the first key that no longer starts with Prefix.
  for (auto It = I.Counters.lower_bound(Prefix); It != I.Counters.end();
       ++It) {
    if (It->first.compare(0, Prefix.size(), Prefix) != 0)
      break;
    Out.emplace_back(It->first, It->second->get());
  }
  return Out;
}

namespace {

std::string histLine(const char *Kind, const std::string &Name, uint64_t N,
                     uint64_t Sum, uint64_t Min, uint64_t Max, uint64_t P50,
                     uint64_t P90, uint64_t P99, int64_t WindowNs) {
  std::string Line = strFormat(
      "%s %s count=%llu sum=%llu min=%llu max=%llu avg=%.1f "
      "p50=%llu p90=%llu p99=%llu",
      Kind, Name.c_str(), static_cast<unsigned long long>(N),
      static_cast<unsigned long long>(Sum),
      static_cast<unsigned long long>(N ? Min : 0),
      static_cast<unsigned long long>(Max),
      N ? static_cast<double>(Sum) / static_cast<double>(N) : 0.0,
      static_cast<unsigned long long>(P50),
      static_cast<unsigned long long>(P90),
      static_cast<unsigned long long>(P99));
  if (WindowNs > 0)
    Line += strFormat(" window_s=%.0f", static_cast<double>(WindowNs) / 1e9);
  return Line + "\n";
}

} // namespace

std::string Registry::summaryText() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  // Determinism contract (metrics diffs must be stable across runs): emit
  // each kind's lines in explicitly sorted name order, independent of the
  // container behind the registrations.
  std::string Out = "# denali metrics v1\n";
  std::vector<std::string> Lines;
  auto emitSorted = [&Out, &Lines]() {
    std::sort(Lines.begin(), Lines.end());
    for (const std::string &L : Lines)
      Out += L;
    Lines.clear();
  };
  for (const auto &[Name, C] : I.Counters)
    Lines.push_back(strFormat("counter %s %llu\n", Name.c_str(),
                              static_cast<unsigned long long>(C->get())));
  emitSorted();
  for (const auto &[Name, G] : I.Gauges)
    Lines.push_back(strFormat("gauge %s %lld\n", Name.c_str(),
                              static_cast<long long>(G->get())));
  emitSorted();
  for (const auto &[Name, H] : I.Histograms)
    Lines.push_back(histLine("hist", Name, H->count(), H->sum(), H->min(),
                             H->max(), H->percentile(0.50),
                             H->percentile(0.90), H->percentile(0.99), 0));
  emitSorted();
  for (const auto &[Name, W] : I.Windows) {
    WindowedHistogram::Snapshot S = W->snapshot();
    Lines.push_back(histLine("whist", Name, S.Count, S.Sum, S.Min, S.Max,
                             S.percentile(0.50), S.percentile(0.90),
                             S.percentile(0.99), S.WindowNs));
  }
  emitSorted();
  return Out;
}

std::string Registry::snapshotJson() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  auto histJson = [](uint64_t N, uint64_t Sum, uint64_t Min, uint64_t Max,
                     uint64_t P50, uint64_t P90, uint64_t P99) {
    return strFormat(
        "{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
        "\"avg\":%.1f,\"p50\":%llu,\"p90\":%llu,\"p99\":%llu}",
        static_cast<unsigned long long>(N),
        static_cast<unsigned long long>(Sum),
        static_cast<unsigned long long>(N ? Min : 0),
        static_cast<unsigned long long>(Max),
        N ? static_cast<double>(Sum) / static_cast<double>(N) : 0.0,
        static_cast<unsigned long long>(P50),
        static_cast<unsigned long long>(P90),
        static_cast<unsigned long long>(P99));
  };
  std::string Out = "\"counters\":{";
  bool First = true;
  for (const auto &[Name, C] : I.Counters) {
    Out += strFormat("%s\"%s\":%llu", First ? "" : ",",
                     jsonEscape(Name).c_str(),
                     static_cast<unsigned long long>(C->get()));
    First = false;
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, G] : I.Gauges) {
    Out += strFormat("%s\"%s\":%lld", First ? "" : ",",
                     jsonEscape(Name).c_str(),
                     static_cast<long long>(G->get()));
    First = false;
  }
  Out += "},\"hists\":{";
  First = true;
  for (const auto &[Name, H] : I.Histograms) {
    Out += strFormat("%s\"%s\":%s", First ? "" : ",",
                     jsonEscape(Name).c_str(),
                     histJson(H->count(), H->sum(), H->min(), H->max(),
                              H->percentile(0.50), H->percentile(0.90),
                              H->percentile(0.99))
                         .c_str());
    First = false;
  }
  Out += "},\"whists\":{";
  First = true;
  for (const auto &[Name, W] : I.Windows) {
    WindowedHistogram::Snapshot S = W->snapshot();
    Out += strFormat(
        "%s\"%s\":%s", First ? "" : ",", jsonEscape(Name).c_str(),
        histJson(S.Count, S.Sum, S.Min, S.Max, S.percentile(0.50),
                 S.percentile(0.90), S.percentile(0.99))
            .c_str());
    First = false;
  }
  Out += "}";
  return Out;
}

void Registry::resetAll() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  for (auto &[Name, C] : I.Counters)
    C->reset();
  for (auto &[Name, G] : I.Gauges)
    G->reset();
  for (auto &[Name, H] : I.Histograms)
    H->reset();
  for (auto &[Name, W] : I.Windows)
    W->reset();
}

//===----------------------------------------------------------------------===
// Per-thread event buffers with a lock-free publish stack
//===----------------------------------------------------------------------===

namespace {

constexpr size_t ChunkCapacity = 256;

struct EventChunk {
  std::vector<Event> Events;
  EventChunk *Next = nullptr;
};

std::atomic<EventChunk *> PublishedHead{nullptr};
std::atomic<uint32_t> NextTid{0};

/// Lock-free MPSC publish: one CAS per chunk, the only cross-thread
/// operation on the tracing hot path.
void publishChunk(EventChunk *C) {
  C->Next = PublishedHead.load(std::memory_order_relaxed);
  while (!PublishedHead.compare_exchange_weak(
      C->Next, C, std::memory_order_release, std::memory_order_relaxed)) {
  }
}

struct ThreadBuffer {
  EventChunk *Cur = nullptr;
  uint32_t Tid;

  ThreadBuffer()
      : Tid(NextTid.fetch_add(1, std::memory_order_relaxed) + 1) {}

  ~ThreadBuffer() { flush(); }

  void flush() {
    if (Cur && !Cur->Events.empty()) {
      publishChunk(Cur);
    } else {
      delete Cur;
    }
    Cur = nullptr;
  }

  void emit(Event &&E) {
    if (!Cur) {
      Cur = new EventChunk;
      Cur->Events.reserve(ChunkCapacity);
    }
    Cur->Events.push_back(std::move(E));
    if (Cur->Events.size() >= ChunkCapacity) {
      publishChunk(Cur);
      Cur = nullptr;
    }
  }
};

ThreadBuffer &threadBuffer() {
  static thread_local ThreadBuffer TB;
  return TB;
}

thread_local uint16_t SpanDepth = 0;

/// The calling thread's request context (see RequestScope).
struct RequestTls {
  uint64_t Id = 0;
  RequestTrace *Trace = nullptr;
};

thread_local RequestTls ReqTls;

std::atomic<uint64_t> NextRequestId{0};

/// Drains the publish stack; caller owns the returned events.
std::vector<Event> drainPublished() {
  EventChunk *Head = PublishedHead.exchange(nullptr, std::memory_order_acquire);
  std::vector<Event> Out;
  while (Head) {
    for (Event &E : Head->Events)
      Out.push_back(std::move(E));
    EventChunk *Next = Head->Next;
    delete Head;
    Head = Next;
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===
// Request contexts
//===----------------------------------------------------------------------===

uint64_t obs::nextRequestId() {
  return NextRequestId.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t obs::currentRequestId() { return ReqTls.Id; }

RequestScope::RequestScope(uint64_t Id, RequestTrace *Trace)
    : PrevId(ReqTls.Id), PrevTrace(ReqTls.Trace) {
  ReqTls.Id = Id;
  ReqTls.Trace = Trace;
}

RequestScope::~RequestScope() {
  ReqTls.Id = PrevId;
  ReqTls.Trace = PrevTrace;
}

void RequestTrace::append(const Event &E) {
  std::lock_guard<std::mutex> Lock(Mu);
  Retained.push_back(E);
}

std::vector<Event> RequestTrace::events() const {
  std::vector<Event> Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Out = Retained;
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Event &A, const Event &B) {
                     if (A.StartNs != B.StartNs)
                       return A.StartNs < B.StartNs;
                     return A.DurNs > B.DurNs; // Parents before children.
                   });
  return Out;
}

std::string RequestTrace::spanTreeText() const {
  std::string Out;
  for (const Event &E : events()) {
    const char *Label = E.Kind == EventKind::Log ? E.Msg.c_str() : E.Name;
    if (E.Kind == EventKind::Span)
      Out += strFormat("%9.1fus ", static_cast<double>(E.DurNs) / 1000.0);
    else
      Out += strFormat("%9s   ", E.Kind == EventKind::Instant ? "·" : "log");
    Out += strFormat("%*s%s", static_cast<int>(E.Depth) * 2, "", Label);
    if (!E.Args.empty())
      Out += strFormat(" {%s}", E.Args.c_str());
    Out += "\n";
  }
  return Out;
}

/// Stamps the thread's request context onto \p E and mirrors it into the
/// installed RequestTrace (when any) before the event moves into the shared
/// buffers.
static void stampRequest(Event &E) {
  E.Req = ReqTls.Id;
  if (ReqTls.Trace)
    ReqTls.Trace->append(E);
}

void obs::flushThreadEvents() { threadBuffer().flush(); }

std::vector<Event> obs::collectEvents() {
  flushThreadEvents();
  std::vector<Event> Events = drainPublished();
  std::stable_sort(Events.begin(), Events.end(),
                   [](const Event &A, const Event &B) {
                     if (A.StartNs != B.StartNs)
                       return A.StartNs < B.StartNs;
                     return A.DurNs > B.DurNs; // Parents before children.
                   });
  return Events;
}

void obs::clearEvents() {
  flushThreadEvents();
  drainPublished();
}

void obs::instant(const char *Name, std::string Args) {
  // Instants have no metric side effect, so in metrics-only mode they are
  // worth recording only when a RequestTrace will retain them.
  if (!enabled() || (!eventsEnabled() && !ReqTls.Trace))
    return;
  Event E;
  E.Kind = EventKind::Instant;
  E.Name = Name;
  E.Tid = threadBuffer().Tid;
  E.Depth = SpanDepth;
  E.StartNs = nowNs();
  E.Args = std::move(Args);
  stampRequest(E);
  if (eventsEnabled())
    threadBuffer().emit(std::move(E));
}

void obs::logf(int Level, const char *Fmt, ...) {
  if (logLevel() < Level)
    return;
  char Buf[1024];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  std::fprintf(stderr, "[denali:%d] %s\n", Level, Buf);
  if (!enabled() || (!eventsEnabled() && !ReqTls.Trace))
    return;
  Event E;
  E.Kind = EventKind::Log;
  E.Level = static_cast<uint8_t>(Level);
  E.Name = "log";
  E.Tid = threadBuffer().Tid;
  E.Depth = SpanDepth;
  E.StartNs = nowNs();
  E.Msg = Buf;
  stampRequest(E);
  if (eventsEnabled())
    threadBuffer().emit(std::move(E));
}

//===----------------------------------------------------------------------===
// ObsSpan
//===----------------------------------------------------------------------===

ObsSpan::ObsSpan(const char *Name) : Active(enabled()) {
  if (!Active)
    return;
  // The completed event is only worth assembling when something retains it:
  // the shared buffers (event mode) or this thread's RequestTrace. The
  // duration histogram is fed either way.
  Retain = eventsEnabled() || ReqTls.Trace != nullptr;
  this->Name = Name;
  StartNs = nowNs();
  ++SpanDepth;
}

ObsSpan::~ObsSpan() {
  if (!Active)
    return;
  --SpanDepth;
  int64_t DurNs = nowNs() - StartNs;
  if (Retain) {
    Event E;
    E.Kind = EventKind::Span;
    E.Name = Name;
    E.Tid = threadBuffer().Tid;
    E.Depth = SpanDepth;
    E.StartNs = StartNs;
    E.DurNs = DurNs;
    E.Args = std::move(Args);
    stampRequest(E);
    if (eventsEnabled())
      threadBuffer().emit(std::move(E));
  }
  // Span names are string literals, so the histogram handle can be cached
  // per name *pointer*, sparing the hot path the string concatenation and
  // the registry mutex on every span destruction.
  thread_local std::unordered_map<const void *, Histogram *> HistCache;
  Histogram *&H = HistCache[static_cast<const void *>(Name)];
  if (!H)
    H = &Registry::global().histogram(std::string("span.") + Name + ".us");
  H->record(static_cast<uint64_t>(DurNs / 1000));
}

ObsSpan &ObsSpan::arg(const char *Key, uint64_t V) {
  if (Retain)
    Args += strFormat("%s\"%s\":%llu", Args.empty() ? "" : ",", Key,
                      static_cast<unsigned long long>(V));
  return *this;
}

ObsSpan &ObsSpan::arg(const char *Key, int64_t V) {
  if (Retain)
    Args += strFormat("%s\"%s\":%lld", Args.empty() ? "" : ",", Key,
                      static_cast<long long>(V));
  return *this;
}

ObsSpan &ObsSpan::arg(const char *Key, double V) {
  if (Retain)
    Args += strFormat("%s\"%s\":%.6f", Args.empty() ? "" : ",", Key, V);
  return *this;
}

ObsSpan &ObsSpan::arg(const char *Key, const char *V) {
  if (Retain)
    Args += strFormat("%s\"%s\":\"%s\"", Args.empty() ? "" : ",", Key,
                      jsonEscape(V).c_str());
  return *this;
}

//===----------------------------------------------------------------------===
// Exporters
//===----------------------------------------------------------------------===

std::string obs::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

namespace {

const char *phaseOf(const Event &E) {
  switch (E.Kind) {
  case EventKind::Span:
    return "X";
  case EventKind::Instant:
  case EventKind::Log:
    return "i";
  }
  return "i";
}

} // namespace

std::string obs::chromeTraceJson(const std::vector<Event> &Events) {
  std::string Out = "{\"traceEvents\":[\n";
  bool First = true;
  for (const Event &E : Events) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += strFormat("{\"name\":\"%s\",\"cat\":\"denali\",\"ph\":\"%s\","
                     "\"ts\":%.3f,",
                     jsonEscape(E.Kind == EventKind::Log ? E.Msg
                                                         : std::string(E.Name))
                         .c_str(),
                     phaseOf(E), static_cast<double>(E.StartNs) / 1000.0);
    if (E.Kind == EventKind::Span)
      Out += strFormat("\"dur\":%.3f,", static_cast<double>(E.DurNs) / 1000.0);
    else
      Out += "\"s\":\"t\",";
    Out += strFormat("\"pid\":1,\"tid\":%u", E.Tid);
    // The request id rides in args so Perfetto can group/filter by it.
    std::string ArgsFrag = E.Args;
    if (E.Req)
      ArgsFrag = strFormat("\"req\":%llu%s%s",
                           static_cast<unsigned long long>(E.Req),
                           ArgsFrag.empty() ? "" : ",", ArgsFrag.c_str());
    if (!ArgsFrag.empty())
      Out += strFormat(",\"args\":{%s}", ArgsFrag.c_str());
    Out += "}";
  }
  Out += "\n]}\n";
  return Out;
}

std::string obs::jsonlText(const std::vector<Event> &Events) {
  std::string Out;
  for (const Event &E : Events) {
    const char *Kind = E.Kind == EventKind::Span      ? "span"
                       : E.Kind == EventKind::Instant ? "instant"
                                                      : "log";
    Out += strFormat("{\"kind\":\"%s\",\"name\":\"%s\",\"tid\":%u,"
                     "\"depth\":%u,\"start_us\":%.3f,\"dur_us\":%.3f",
                     Kind, jsonEscape(E.Name).c_str(), E.Tid, E.Depth,
                     static_cast<double>(E.StartNs) / 1000.0,
                     static_cast<double>(E.DurNs) / 1000.0);
    if (E.Req)
      Out += strFormat(",\"req\":%llu",
                       static_cast<unsigned long long>(E.Req));
    if (!E.Args.empty())
      Out += strFormat(",\"args\":{%s}", E.Args.c_str());
    if (E.Kind == EventKind::Log)
      Out += strFormat(",\"level\":%u,\"msg\":\"%s\"", E.Level,
                       jsonEscape(E.Msg).c_str());
    Out += "}\n";
  }
  return Out;
}

bool obs::writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "obs: cannot write '%s'\n", Path.c_str());
    return false;
  }
  std::fwrite(Text.data(), 1, Text.size(), Out);
  std::fclose(Out);
  return true;
}

bool obs::exportConfigured() {
  ObsConfig C = config();
  bool Ok = true;
  if (!C.TraceOut.empty() || !C.JsonlOut.empty()) {
    std::vector<Event> Events = collectEvents();
    if (!C.TraceOut.empty())
      Ok &= writeTextFile(C.TraceOut, chromeTraceJson(Events));
    if (!C.JsonlOut.empty())
      Ok &= writeTextFile(C.JsonlOut, jsonlText(Events));
  }
  if (!C.MetricsOut.empty())
    Ok &= writeTextFile(C.MetricsOut, Registry::global().summaryText());
  return Ok;
}

//===----------------------------------------------------------------------===
// MetricsFlusher
//===----------------------------------------------------------------------===

void MetricsFlusher::start(const Options &O) {
  if (Running || O.Path.empty() || O.IntervalSec <= 0)
    return;
  Opts = O;
  StopFlag = false;
  Running = true;
  Worker = std::thread([this] {
    std::unique_lock<std::mutex> Lock(Mu);
    while (!StopFlag) {
      Cv.wait_for(Lock,
                  std::chrono::duration<double>(Opts.IntervalSec),
                  [this] { return StopFlag; });
      if (StopFlag)
        break;
      Lock.unlock();
      flushOnce();
      Lock.lock();
    }
  });
}

void MetricsFlusher::stop() {
  if (!Running)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    StopFlag = true;
  }
  Cv.notify_all();
  Worker.join();
  Running = false;
  // Final snapshot so short-lived servers still leave one line behind.
  flushOnce();
}

bool MetricsFlusher::flushOnce() {
  if (Opts.Path.empty())
    return false;
  const auto WallMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::string Line =
      strFormat("{\"ts_ms\":%lld,%s}\n", static_cast<long long>(WallMs),
                Registry::global().snapshotJson().c_str());
  std::FILE *Out = std::fopen(Opts.Path.c_str(), "a");
  if (!Out) {
    std::fprintf(stderr, "obs: cannot append '%s'\n", Opts.Path.c_str());
    return false;
  }
  std::fwrite(Line.data(), 1, Line.size(), Out);
  long Size = std::ftell(Out);
  std::fclose(Out);
  Flushes.fetch_add(1, std::memory_order_relaxed);
  rotateIfNeeded(Size);
  return true;
}

void MetricsFlusher::rotateIfNeeded(long Size) {
  if (Size < 0 || static_cast<size_t>(Size) <= Opts.MaxBytes)
    return;
  // Shift the generations: Path.(N-1) -> Path.N, ..., Path -> Path.1. The
  // oldest generation falls off the end.
  std::remove(strFormat("%s.%d", Opts.Path.c_str(), Opts.MaxFiles).c_str());
  for (int I = Opts.MaxFiles - 1; I >= 1; --I)
    std::rename(strFormat("%s.%d", Opts.Path.c_str(), I).c_str(),
                strFormat("%s.%d", Opts.Path.c_str(), I + 1).c_str());
  std::rename(Opts.Path.c_str(),
              strFormat("%s.1", Opts.Path.c_str()).c_str());
}
