//===- tests/ObsTests.cpp - observability layer tests ---------------------===//
//
// The obs layer is process-global state (one registry, one event stream,
// one enabled flag), so every test here re-configures it on entry and the
// concurrency tests are the TSan gate for the lock-free event publishing
// (build with -DDENALI_SANITIZE=thread).
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include "driver/Superoptimizer.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "verify/GmaGen.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <thread>

using namespace denali;
namespace json = denali::support::json;

namespace {

/// Installs a fresh enabled configuration and clears all prior state.
void resetObs(bool Enabled) {
  obs::ObsConfig C;
  C.Enabled = Enabled;
  obs::configure(C);
  obs::clearEvents();
  obs::Registry::global().resetAll();
}

TEST(ObsRegistry, CountersGaugesHistograms) {
  resetObs(true);
  auto &R = obs::Registry::global();
  R.counter("t.c").add(3);
  R.counter("t.c").add();
  EXPECT_EQ(R.counter("t.c").get(), 4u);
  EXPECT_EQ(R.counterValue("t.c"), 4u);
  EXPECT_EQ(R.counterValue("t.absent"), 0u); // Lookup does not register.

  R.gauge("t.g").set(7);
  R.gauge("t.g").noteMax(5); // Smaller: no effect.
  EXPECT_EQ(R.gauge("t.g").get(), 7);
  R.gauge("t.g").noteMax(9);
  EXPECT_EQ(R.gauge("t.g").get(), 9);

  auto &H = R.histogram("t.h");
  H.record(10);
  H.record(20);
  H.record(3);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), 33u);
  EXPECT_EQ(H.min(), 3u);
  EXPECT_EQ(H.max(), 20u);

  std::string Summary = R.summaryText();
  EXPECT_NE(Summary.find("counter t.c 4\n"), std::string::npos) << Summary;
  EXPECT_NE(Summary.find("gauge t.g 9\n"), std::string::npos) << Summary;
  EXPECT_NE(Summary.find("hist t.h count=3 sum=33 min=3 max=20 avg=11.0"),
            std::string::npos)
      << Summary;

  R.resetAll();
  EXPECT_EQ(R.counterValue("t.c"), 0u);
  EXPECT_EQ(R.histogram("t.h").count(), 0u);
}

TEST(ObsRegistry, ReferencesAreStableAcrossRegistrations) {
  resetObs(true);
  auto &R = obs::Registry::global();
  obs::Counter &C = R.counter("t.stable");
  // Register many more counters; the earlier reference must stay valid.
  for (int I = 0; I < 500; ++I)
    R.counter("t.filler." + std::to_string(I)).add();
  C.add(11);
  EXPECT_EQ(R.counterValue("t.stable"), 11u);
}

TEST(ObsRegistry, ConcurrentUpdatesUnderThreadPool) {
  resetObs(true);
  auto &R = obs::Registry::global();
  constexpr int Threads = 8;
  constexpr int PerThread = 2000;
  support::ThreadPool Pool(Threads);
  std::vector<std::future<void>> Futures;
  for (int T = 0; T < Threads; ++T)
    Futures.push_back(Pool.submit([&R, T] {
      for (int I = 0; I < PerThread; ++I) {
        R.counter("t.conc.c").add();
        // Concurrent lazy registration from every thread.
        R.counter("t.conc.per." + std::to_string(T)).add();
        R.gauge("t.conc.g").noteMax(T * PerThread + I);
        R.histogram("t.conc.h").record(static_cast<uint64_t>(I));
      }
    }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(R.counterValue("t.conc.c"),
            static_cast<uint64_t>(Threads) * PerThread);
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(R.counterValue("t.conc.per." + std::to_string(T)),
              static_cast<uint64_t>(PerThread));
  EXPECT_EQ(R.gauge("t.conc.g").get(), Threads * PerThread - 1);
  EXPECT_EQ(R.histogram("t.conc.h").count(),
            static_cast<uint64_t>(Threads) * PerThread);
}

TEST(ObsRegistry, HistogramPercentiles) {
  resetObs(true);
  auto &R = obs::Registry::global();
  auto &H = R.histogram("t.pct");
  for (uint64_t I = 1; I <= 100; ++I)
    H.record(I);
  // Log2 buckets: the estimate is the bucket's upper edge, clamped to the
  // exact [min, max]; p50 of 1..100 lands in bucket [32,64) -> edge 63.
  EXPECT_EQ(H.percentile(0.5), 63u);
  EXPECT_EQ(H.percentile(0.99), 100u); // Clamped to max.
  EXPECT_EQ(H.percentile(0.0), 1u);    // Clamped to min.
  EXPECT_EQ(R.histogram("t.pct.empty").percentile(0.5), 0u);

  // The summary line carries the estimates.
  std::string Summary = R.summaryText();
  EXPECT_NE(Summary.find("hist t.pct count=100"), std::string::npos)
      << Summary;
  EXPECT_NE(Summary.find("p50=63"), std::string::npos) << Summary;
}

TEST(ObsRegistry, SummaryTextIsSortedAndDeterministic) {
  resetObs(true);
  auto &R = obs::Registry::global();
  // Register deliberately out of order.
  R.counter("t.z").add(1);
  R.counter("t.a").add(2);
  R.gauge("t.m").set(3);
  R.histogram("t.k").record(4);
  R.windowed("t.w").record(5);
  std::string S1 = R.summaryText();
  std::string S2 = R.summaryText();
  EXPECT_EQ(S1, S2);
  // Kinds in fixed order, names sorted within each kind.
  size_t A = S1.find("counter t.a ");
  size_t Z = S1.find("counter t.z ");
  size_t G = S1.find("gauge t.m ");
  size_t H = S1.find("hist t.k ");
  size_t W = S1.find("whist t.w ");
  ASSERT_NE(A, std::string::npos) << S1;
  ASSERT_NE(Z, std::string::npos) << S1;
  ASSERT_NE(G, std::string::npos) << S1;
  ASSERT_NE(H, std::string::npos) << S1;
  ASSERT_NE(W, std::string::npos) << S1;
  EXPECT_LT(A, Z);
  EXPECT_LT(Z, G);
  EXPECT_LT(G, H);
  EXPECT_LT(H, W);
}

TEST(ObsRegistry, WindowedHistogramBasics) {
  obs::WindowedHistogram W; // Default 60s window: nothing expires in-test.
  EXPECT_EQ(W.snapshot().Count, 0u);
  EXPECT_EQ(W.snapshot().percentile(0.5), 0u);
  for (uint64_t I = 1; I <= 100; ++I)
    W.record(I);
  obs::WindowedHistogram::Snapshot S = W.snapshot();
  EXPECT_EQ(S.Count, 100u);
  EXPECT_EQ(S.Sum, 5050u);
  EXPECT_EQ(S.Min, 1u);
  EXPECT_EQ(S.Max, 100u);
  EXPECT_DOUBLE_EQ(S.avg(), 50.5);
  EXPECT_EQ(S.percentile(0.5), 63u);
  EXPECT_EQ(S.percentile(0.99), 100u);
  EXPECT_EQ(S.WindowNs, obs::WindowedHistogram::DefaultWindowNs);
  W.reset();
  EXPECT_EQ(W.snapshot().Count, 0u);
}

TEST(ObsRegistry, WindowedHistogramExpiresOldSamples) {
  // A 8ms window over 8 slots (1ms each): samples recorded now must fall
  // out of the snapshot after the window has fully rotated.
  obs::WindowedHistogram W(8ll * 1000 * 1000);
  W.record(42);
  EXPECT_EQ(W.snapshot().Count, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Recording after the gap claims fresh slots; the old sample's slot is
  // outside the merge range.
  W.record(7);
  obs::WindowedHistogram::Snapshot S = W.snapshot();
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.Max, 7u);
}

TEST(ObsRegistry, WindowedHistogramIdleGapLongerThanRing) {
  // Deterministic-time rotation: an idle gap many times the whole window
  // must expire everything, whatever the gap's alignment to slot
  // boundaries — the epoch math may not alias old slots back in when the
  // slot index wraps (gap mod ring size == 0 is the aliasing trap).
  constexpr int64_t WindowNs = 8ll * 1000 * 1000;
  const int64_t SlotNs = WindowNs / 7; // NumSlots - 1 live slots.
  for (int64_t GapSlots : {8ll, 16ll, 64ll, 65ll, 1000001ll}) {
    obs::WindowedHistogram W(WindowNs);
    int64_t T0 = 1000000; // Arbitrary nonzero epoch start.
    W.recordAt(T0, 42);
    EXPECT_EQ(W.snapshotAt(T0).Count, 1u);
    int64_t T1 = T0 + GapSlots * SlotNs;
    // A snapshot alone after the gap sees an empty window...
    obs::WindowedHistogram::Snapshot Idle = W.snapshotAt(T1);
    EXPECT_EQ(Idle.Count, 0u) << "gap=" << GapSlots;
    // ...and the first record after the gap claims a clean slot rather
    // than merging with the pre-gap sample stranded at the same index.
    W.recordAt(T1, 7);
    obs::WindowedHistogram::Snapshot S = W.snapshotAt(T1);
    EXPECT_EQ(S.Count, 1u) << "gap=" << GapSlots;
    EXPECT_EQ(S.Max, 7u) << "gap=" << GapSlots;
    EXPECT_EQ(S.Min, 7u) << "gap=" << GapSlots;
  }
}

TEST(ObsRegistry, WindowedHistogramSnapshotDuringRotation) {
  // Writers sweep timestamps across many slot boundaries while readers
  // snapshot mid-rotation from other pool threads. Bounds on what a
  // mid-rotation snapshot may observe: never more than the samples still
  // in-window, never garbage (Min/Max inside the recorded value range).
  // The TSan copy of this test is the race gate for the CAS slot reset.
  constexpr int64_t WindowNs = 8ll * 1000 * 1000;
  const int64_t SlotNs = WindowNs / 7;
  obs::WindowedHistogram W(WindowNs);
  constexpr int Writers = 4, Readers = 4, Steps = 3000;
  std::atomic<int64_t> Clock{1000000};
  std::atomic<uint64_t> NonEmpty{0};
  {
    support::ThreadPool Pool(Writers + Readers);
    std::vector<std::future<void>> Futures;
    for (int T = 0; T < Writers; ++T)
      Futures.push_back(Pool.submit([&W, &Clock] {
        for (int I = 0; I < Steps; ++I) {
          // Each write advances the shared clock a fraction of a slot, so
          // the run crosses hundreds of rotation boundaries.
          int64_t Now = Clock.fetch_add(SlotNs / 64) + SlotNs / 64;
          W.recordAt(Now, 100 + static_cast<uint64_t>(I % 100));
        }
      }));
    for (int T = 0; T < Readers; ++T)
      Futures.push_back(Pool.submit([&W, &Clock, &NonEmpty] {
        for (int I = 0; I < Steps; ++I) {
          obs::WindowedHistogram::Snapshot S = W.snapshotAt(Clock.load());
          if (S.Count) {
            NonEmpty.fetch_add(1);
            EXPECT_GE(S.Min, 100u);
            EXPECT_LE(S.Max, 199u);
            EXPECT_GE(S.Sum, S.Count * 100);
            EXPECT_LE(S.Sum, S.Count * 199);
          }
        }
      }));
    for (auto &F : Futures)
      F.get();
  }
  EXPECT_GT(NonEmpty.load(), 0u);
  // Quiescent check at the final clock: whatever remains in-window is
  // internally consistent after all the contended rotations.
  obs::WindowedHistogram::Snapshot S = W.snapshotAt(Clock.load());
  EXPECT_LE(S.Count, static_cast<uint64_t>(Writers) * Steps);
  if (S.Count) {
    EXPECT_GE(S.Min, 100u);
    EXPECT_LE(S.Max, 199u);
  }
}

TEST(ObsRegistry, WindowedMergeUnderThreadPool) {
  resetObs(true);
  auto &W = obs::Registry::global().windowed("t.win.conc");
  constexpr int Threads = 8;
  constexpr int PerThread = 4000;
  {
    support::ThreadPool Pool(Threads);
    std::vector<std::future<void>> Futures;
    std::atomic<uint64_t> Snapshots{0};
    for (int T = 0; T < Threads; ++T)
      Futures.push_back(Pool.submit([&W, &Snapshots, T] {
        for (int I = 0; I < PerThread; ++I) {
          W.record(static_cast<uint64_t>(T * PerThread + I + 1));
          // Interleave snapshot readers with writers: the TSan copy of this
          // test is the data-race gate for the lock-free slot ring.
          if (I % 512 == 0)
            Snapshots.fetch_add(W.snapshot().Count);
        }
      }));
    for (auto &F : Futures)
      F.get();
    EXPECT_GT(Snapshots.load(), 0u);
  }
  // All samples land well inside the 60s window; the documented one-sample
  // loss race only applies at slot-boundary rotation, which a sub-second
  // test never crosses.
  obs::WindowedHistogram::Snapshot S = W.snapshot();
  EXPECT_EQ(S.Count, static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(S.Min, 1u);
  EXPECT_EQ(S.Max, static_cast<uint64_t>(Threads) * PerThread);
}

TEST(ObsRequest, ScopeStampsEventsAndRestores) {
  resetObs(true);
  EXPECT_EQ(obs::currentRequestId(), 0u);
  const uint64_t R1 = obs::nextRequestId();
  const uint64_t R2 = obs::nextRequestId();
  EXPECT_NE(R1, 0u);
  EXPECT_NE(R1, R2);

  obs::RequestTrace Trace;
  {
    obs::RequestScope Outer(R1, &Trace);
    EXPECT_EQ(obs::currentRequestId(), R1);
    { obs::ObsSpan S("t.req.outer"); }
    {
      obs::RequestScope Inner(R2);
      EXPECT_EQ(obs::currentRequestId(), R2);
      { obs::ObsSpan S("t.req.inner"); }
    }
    EXPECT_EQ(obs::currentRequestId(), R1); // Nested scope restored.
    obs::instant("t.req.marker");
  }
  EXPECT_EQ(obs::currentRequestId(), 0u);
  { obs::ObsSpan S("t.req.none"); }

  std::map<std::string, uint64_t> ReqByName;
  for (const obs::Event &E : obs::collectEvents())
    ReqByName[E.Kind == obs::EventKind::Span ? E.Name : "marker"] = E.Req;
  EXPECT_EQ(ReqByName["t.req.outer"], R1);
  EXPECT_EQ(ReqByName["t.req.inner"], R2);
  EXPECT_EQ(ReqByName["marker"], R1);
  EXPECT_EQ(ReqByName["t.req.none"], 0u);

  // The installed RequestTrace retained only the R1-scope events (the inner
  // scope replaced the trace pointer).
  std::vector<obs::Event> Kept = Trace.events();
  ASSERT_EQ(Kept.size(), 2u);
  std::string Tree = Trace.spanTreeText();
  EXPECT_NE(Tree.find("t.req.outer"), std::string::npos) << Tree;
}

TEST(ObsRequest, ScopeIsPerThread) {
  // The request context is thread-local: a thread records under a request
  // only inside its own RequestScope, and one RequestTrace installed by
  // the scopes of several threads retains the events of all of them.
  resetObs(true);
  const uint64_t Id = obs::nextRequestId();
  obs::RequestTrace Trace;
  obs::RequestScope Scope(Id, &Trace);
  std::thread Bare([] {
    EXPECT_EQ(obs::currentRequestId(), 0u);
    { obs::ObsSpan S("t.req.bare"); }
    obs::flushThreadEvents();
  });
  Bare.join();
  std::vector<std::thread> Workers;
  for (int I = 0; I < 2; ++I)
    Workers.emplace_back([Id, &Trace] {
      obs::RequestScope WorkerScope(Id, &Trace);
      { obs::ObsSpan S("t.req.worker"); }
      obs::flushThreadEvents();
    });
  for (std::thread &W : Workers)
    W.join();

  unsigned Bare0 = 0, Stamped = 0;
  for (const obs::Event &E : obs::collectEvents()) {
    if (E.Kind != obs::EventKind::Span)
      continue;
    if (std::string(E.Name) == "t.req.bare")
      Bare0 += E.Req == 0;
    else if (std::string(E.Name) == "t.req.worker")
      Stamped += E.Req == Id;
  }
  EXPECT_EQ(Bare0, 1u);
  EXPECT_EQ(Stamped, 2u);
  std::vector<obs::Event> Kept = Trace.events();
  ASSERT_EQ(Kept.size(), 2u);
  for (const obs::Event &E : Kept)
    EXPECT_EQ(std::string(E.Name), "t.req.worker");
}

TEST(ObsRequest, JsonlCarriesRequestId) {
  resetObs(true);
  const uint64_t Id = obs::nextRequestId();
  {
    obs::RequestScope Scope(Id);
    obs::ObsSpan S("t.req.jsonl");
  }
  std::string Text = obs::jsonlText(obs::collectEvents());
  EXPECT_NE(Text.find("\"req\":" + std::to_string(Id)), std::string::npos)
      << Text;
  std::string Err;
  EXPECT_TRUE(json::parse(Text.substr(0, Text.find('\n')), &Err)) << Err;
}

TEST(ObsFlusher, FlushOnceWritesParseableJsonAndRotates) {
  resetObs(true);
  obs::Registry::global().counter("t.flush.c").add(9);
  const std::string Path = "test_metrics_flush.jsonl";
  std::remove(Path.c_str());
  std::remove((Path + ".1").c_str());
  std::remove((Path + ".2").c_str());

  obs::MetricsFlusher F;
  obs::MetricsFlusher::Options O;
  O.Path = Path;
  O.IntervalSec = 3600; // Background thread stays asleep; we drive flushes.
  O.MaxBytes = 1;       // Every flush exceeds the threshold -> rotates.
  O.MaxFiles = 2;
  F.start(O);
  EXPECT_TRUE(F.flushOnce());
  EXPECT_TRUE(F.flushOnce());
  F.stop(); // Final flush.
  EXPECT_GE(F.flushCount(), 3u);

  // Rotation left the previous generations behind.
  std::ifstream Gen1(Path + ".1");
  EXPECT_TRUE(Gen1.good());

  // Every line is one standalone JSON object with the registry snapshot.
  std::ifstream In(Path + ".1");
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  std::string Err;
  std::unique_ptr<json::Value> Doc = json::parse(Line, &Err);
  ASSERT_TRUE(Doc) << Err << "\n" << Line;
  ASSERT_TRUE(Doc->field("ts_ms") && Doc->field("ts_ms")->isNumber());
  const json::Value *Counters = Doc->field("counters");
  ASSERT_TRUE(Counters && Counters->isObject()) << Line;
  ASSERT_TRUE(Counters->field("t.flush.c"));
  EXPECT_EQ(Counters->field("t.flush.c")->numberValue(), 9.0);

  std::remove(Path.c_str());
  std::remove((Path + ".1").c_str());
  std::remove((Path + ".2").c_str());
}

TEST(ObsTrace, SpansRecordOnlyWhenEnabled) {
  resetObs(false);
  { obs::ObsSpan S("t.disabled"); }
  obs::instant("t.disabled.i");
  EXPECT_TRUE(obs::collectEvents().empty());

  resetObs(true);
  {
    obs::ObsSpan S("t.enabled");
    S.arg("k", 5u).arg("tag", "v");
  }
  std::vector<obs::Event> Events = obs::collectEvents();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_STREQ(Events[0].Name, "t.enabled");
  EXPECT_EQ(Events[0].Kind, obs::EventKind::Span);
  EXPECT_GE(Events[0].DurNs, 0);
  EXPECT_NE(Events[0].Args.find("\"k\":5"), std::string::npos);
  EXPECT_NE(Events[0].Args.find("\"tag\":\"v\""), std::string::npos);
  // The span fed its duration histogram too.
  EXPECT_EQ(obs::Registry::global().histogram("span.t.enabled.us").count(),
            1u);
}

TEST(ObsTrace, MetricsOnlyModeSkipsEventBuffering) {
  // Enabled with Events off: spans still feed their duration histograms
  // and an installed RequestTrace still retains its request's spans, but
  // nothing accumulates in the shared trace buffers.
  obs::ObsConfig C;
  C.Enabled = true;
  C.Events = false;
  obs::configure(C);
  obs::clearEvents();
  obs::Registry::global().resetAll();
  EXPECT_TRUE(obs::enabled());
  EXPECT_FALSE(obs::eventsEnabled());

  {
    obs::ObsSpan S("t.mon");
    EXPECT_FALSE(S.active()); // Callers skip arg-building.
  }
  obs::instant("t.mon.i");
  EXPECT_TRUE(obs::collectEvents().empty());
  EXPECT_EQ(obs::Registry::global().histogram("span.t.mon.us").count(), 1u);

  obs::RequestTrace T;
  {
    obs::RequestScope Scope(obs::nextRequestId(), &T);
    obs::ObsSpan S("t.mon.traced");
    EXPECT_TRUE(S.active()); // The trace retains it.
  }
  ASSERT_EQ(T.events().size(), 1u);
  EXPECT_STREQ(T.events()[0].Name, "t.mon.traced");
  EXPECT_TRUE(obs::collectEvents().empty());

  resetObs(true);
}

TEST(ObsTrace, ConcurrentSpansFromPoolWorkers) {
  resetObs(true);
  constexpr int Threads = 8;
  constexpr int PerThread = 600; // > chunk capacity: forces mid-run flushes.
  {
    support::ThreadPool Pool(Threads);
    // Start barrier: every task spins until all have started, so each of
    // the 8 tasks lands on a distinct worker (a fast worker would
    // otherwise drain several tasks and leave some threads unexercised).
    std::atomic<int> Started{0};
    std::vector<std::future<void>> Futures;
    for (int T = 0; T < Threads; ++T)
      Futures.push_back(Pool.submit([&Started] {
        Started.fetch_add(1);
        while (Started.load() < Threads)
          std::this_thread::yield();
        for (int I = 0; I < PerThread; ++I) {
          obs::ObsSpan S("t.worker");
          S.arg("i", static_cast<uint64_t>(I));
        }
        obs::flushThreadEvents();
      }));
    for (auto &F : Futures)
      F.get();
  }
  std::vector<obs::Event> Events = obs::collectEvents();
  EXPECT_EQ(Events.size(), static_cast<size_t>(Threads) * PerThread);
  std::set<uint32_t> Tids;
  for (const obs::Event &E : Events)
    Tids.insert(E.Tid);
  EXPECT_EQ(Tids.size(), static_cast<size_t>(Threads));
  // collectEvents sorts by start time.
  EXPECT_TRUE(std::is_sorted(
      Events.begin(), Events.end(),
      [](const obs::Event &A, const obs::Event &B) {
        return A.StartNs < B.StartNs;
      }));
}

TEST(ObsExport, JsonEscape) {
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::jsonEscape(std::string("x\x01y")), "x\\u0001y");
}

TEST(ObsExport, ChromeTraceIsWellFormedJson) {
  resetObs(true);
  {
    obs::ObsSpan Outer("t.outer");
    Outer.arg("k", 3u);
    { obs::ObsSpan Inner("t.inner"); }
    obs::instant("t.marker", "\"note\":\"quote \\\" inside\"");
  }
  obs::logf(0, "log line with \"quotes\"");
  std::string Trace = obs::chromeTraceJson(obs::collectEvents());

  std::string Err;
  std::unique_ptr<json::Value> Doc = json::parse(Trace, &Err);
  ASSERT_TRUE(Doc) << Err << "\n" << Trace;
  const json::Value *Events = Doc->field("traceEvents");
  ASSERT_TRUE(Events && Events->isArray()) << Trace;
  ASSERT_EQ(Events->array().size(), 4u);
  std::multiset<std::string> Names;
  for (const json::Value &E : Events->array()) {
    const json::Value *Name = E.field("name");
    const json::Value *Ph = E.field("ph");
    ASSERT_TRUE(Name && Name->isString());
    ASSERT_TRUE(Ph && Ph->isString());
    ASSERT_TRUE(E.field("ts") && E.field("ts")->isNumber());
    ASSERT_TRUE(E.field("pid") && E.field("tid"));
    if (Ph->stringValue() == "X") {
      ASSERT_TRUE(E.field("dur") && E.field("dur")->isNumber());
    }
    Names.insert(Name->stringValue());
  }
  EXPECT_EQ(Names.count("t.outer"), 1u);
  EXPECT_EQ(Names.count("t.inner"), 1u);
  EXPECT_EQ(Names.count("t.marker"), 1u);
  // The span args survive as a JSON object.
  for (const json::Value &E : Events->array())
    if (E.field("name")->stringValue() == "t.outer") {
      const json::Value *Args = E.field("args");
      ASSERT_TRUE(Args && Args->isObject());
      ASSERT_TRUE(Args->field("k"));
      EXPECT_EQ(Args->field("k")->numberValue(), 3.0);
    }
}

TEST(ObsExport, JsonlLinesParseIndividually) {
  resetObs(true);
  { obs::ObsSpan S("t.jsonl"); }
  obs::instant("t.jsonl.i");
  std::string Text = obs::jsonlText(obs::collectEvents());
  size_t Lines = 0;
  size_t Start = 0;
  while (Start < Text.size()) {
    size_t End = Text.find('\n', Start);
    ASSERT_NE(End, std::string::npos);
    std::string Err;
    EXPECT_TRUE(json::parse(Text.substr(Start, End - Start), &Err)) << Err;
    Start = End + 1;
    ++Lines;
  }
  EXPECT_EQ(Lines, 2u);
}

TEST(ObsScopedTimer, FeedsHistogram) {
  resetObs(true);
  auto &H = obs::Registry::global().histogram("t.scoped.us");
  { obs::ScopedTimer T(H); }
  { obs::ScopedTimer T(H); }
  EXPECT_EQ(H.count(), 2u);
}

/// Golden span-tree test: one tiny pipeline run must emit the expected
/// span taxonomy with the expected nesting (by depth and containment).
TEST(ObsPipeline, GoldenSpanTree) {
  resetObs(true);
  const char *Src = R"(
(\procdecl tiny ((x long)) long (:= (\res (\add64 x 1))))
)";
  driver::Options Opts;
  Opts.Search.MaxCycles = 4;
  driver::Superoptimizer Opt(Opts);
  // The constructor already parsed the builtin axioms (their sexpr.parse
  // spans are not part of this pipeline run) — start the trace fresh.
  obs::clearEvents();
  obs::Registry::global().resetAll();
  driver::CompileResult R = Opt.compileSource(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Gmas.size(), 1u);
  ASSERT_TRUE(R.Gmas[0].ok()) << R.Gmas[0].Error;

  std::vector<obs::Event> Events = obs::collectEvents();
  std::map<std::string, std::vector<const obs::Event *>> ByName;
  for (const obs::Event &E : Events)
    if (E.Kind == obs::EventKind::Span)
      ByName[E.Name].push_back(&E);

  // The stage spans, each exactly once per run...
  for (const char *Name : {"sexpr.parse", "lang.parse", "gma.translate",
                           "gma.compile", "match.saturate", "universe.build",
                           "search"})
    EXPECT_EQ(ByName[Name].size(), 1u) << Name;
  // ...and the per-round / per-probe spans at least once.
  EXPECT_GE(ByName["match.round"].size(), 1u);
  EXPECT_GE(ByName["search.probe"].size(), 1u);
  EXPECT_GE(ByName["encode"].size(), 1u);

  // Nesting, by recorded depth: top-level spans at depth 0, stages inside
  // gma.compile at depth 1, rounds/probes below them.
  EXPECT_EQ(ByName["lang.parse"][0]->Depth, 0u);
  EXPECT_EQ(ByName["gma.compile"][0]->Depth, 0u);
  EXPECT_EQ(ByName["sexpr.parse"][0]->Depth, 1u); // Inside lang.parse.
  EXPECT_EQ(ByName["match.saturate"][0]->Depth, 1u);
  EXPECT_EQ(ByName["search"][0]->Depth, 1u);
  EXPECT_EQ(ByName["match.round"][0]->Depth, 2u);
  EXPECT_EQ(ByName["search.probe"][0]->Depth, 2u);
  EXPECT_EQ(ByName["encode"][0]->Depth, 3u); // Inside search.probe.

  // Interval containment on the same thread backs up the depths.
  auto contains = [](const obs::Event *Outer, const obs::Event *Inner) {
    return Outer->Tid == Inner->Tid && Outer->StartNs <= Inner->StartNs &&
           Inner->StartNs + Inner->DurNs <= Outer->StartNs + Outer->DurNs;
  };
  EXPECT_TRUE(contains(ByName["lang.parse"][0], ByName["sexpr.parse"][0]));
  EXPECT_TRUE(
      contains(ByName["gma.compile"][0], ByName["match.saturate"][0]));
  EXPECT_TRUE(contains(ByName["gma.compile"][0], ByName["search"][0]));
  EXPECT_TRUE(contains(ByName["match.saturate"][0], ByName["match.round"][0]));
  EXPECT_TRUE(contains(ByName["search"][0], ByName["search.probe"][0]));

  // The registry saw the same run.
  auto &Reg = obs::Registry::global();
  EXPECT_GT(Reg.counterValue("match.rounds"), 0u);
  EXPECT_GT(Reg.counterValue("encode.vars"), 0u);
  EXPECT_GT(Reg.counterValue("encode.clauses"), 0u);
  EXPECT_GT(Reg.counterValue("search.probes"), 0u);

  resetObs(false); // Leave the layer off for the remaining test binaries.
}

/// The verification layer reports through the same obs surface as the
/// pipeline: GMA generation, oracle checks, and schedule replay must all
/// leave spans and counters behind.
TEST(ObsVerify, VerifyLayerSpansAndCounters) {
  resetObs(true);
  driver::Superoptimizer Opt;
  ir::Context &Ctx = Opt.context();

  // One generated GMA (span + counter), then a deterministic oracle pass
  // over a trivially compilable goal (oracle + schedule replay).
  verify::GmaGen Gen(Ctx, /*Seed=*/7);
  gma::GMA G = Gen.next();
  EXPECT_FALSE(G.Targets.empty());
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64, {Ctx.Terms.makeVar("x"), Ctx.Terms.makeConst(5)});
  driver::GmaResult R = Opt.compileGoals("obsverify", {{"res", Goal}});
  ASSERT_TRUE(R.ok()) << R.Error;
  verify::OracleVerdict V = verify::checkCompiled(Opt, R);
  EXPECT_EQ(V.Status, verify::OracleStatus::Pass) << V.toString();

  std::map<std::string, unsigned> SpanCount;
  for (const obs::Event &E : obs::collectEvents())
    if (E.Kind == obs::EventKind::Span)
      ++SpanCount[E.Name];
  EXPECT_GE(SpanCount["verify.gmagen"], 1u);
  EXPECT_GE(SpanCount["verify.oracle"], 1u);
  EXPECT_GE(SpanCount["verify.schedule"], 1u);

  auto &Reg = obs::Registry::global();
  EXPECT_GE(Reg.counterValue("verify.gmas_generated"), 1u);
  EXPECT_GE(Reg.counterValue("verify.oracle_checks"), 1u);
  EXPECT_GE(Reg.counterValue("verify.oracle_pass"), 1u);
  EXPECT_GE(Reg.counterValue("verify.schedules_validated"), 1u);

  resetObs(false);
}

} // namespace
