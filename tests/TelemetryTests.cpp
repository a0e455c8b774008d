//===- tests/TelemetryTests.cpp - Telemetry subsystem tests -------------------===//
//
// Covers the gdp::telemetry subsystem: registry semantics, histogram
// merging, trace-event JSON well-formedness (parsed back with the minimal
// parser in support/Json.h), determinism of the counters across identical
// pipeline runs, and the allocation-free disabled fast path. The
// BenchJsonFile suite validates the bench harness's --json output when the
// ctest fixture provides one (GDP_BENCH_JSON), and skips otherwise.
//
//===----------------------------------------------------------------------===//

#include "partition/Pipeline.h"
#include "profile/ExecTrace.h"
#include "profile/Interpreter.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <utility>

using namespace gdp;
using namespace gdp::telemetry;

// --- Global allocation counter: the whole test binary routes operator new
// through this so the disabled-telemetry fast path can be shown to be
// allocation-free.
namespace {
std::atomic<uint64_t> GAllocCount{0};

void *countedAlloc(std::size_t Size) {
  ++GAllocCount;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

TEST(StatsRegistry, CountersAccumulate) {
  StatsRegistry R;
  EXPECT_EQ(R.getCounter("a"), 0u);
  R.addCounter("a", 1);
  R.addCounter("a", 41);
  R.addCounter("b", 7);
  EXPECT_EQ(R.getCounter("a"), 42u);
  EXPECT_EQ(R.getCounter("b"), 7u);
  EXPECT_EQ(R.numCounters(), 2u);
  auto Snap = R.counterSnapshot();
  EXPECT_EQ(Snap.size(), 2u);
  EXPECT_EQ(Snap["a"], 42u);
}

TEST(StatsRegistry, TimersAccumulateSeparately) {
  StatsRegistry R;
  R.addTime("phase", 0.25);
  R.addTime("phase", 0.5);
  EXPECT_DOUBLE_EQ(R.getTime("phase"), 0.75);
  // Timers never leak into the counter table.
  EXPECT_EQ(R.numCounters(), 0u);
  auto Timers = R.timerSnapshot();
  ASSERT_EQ(Timers.size(), 1u);
  EXPECT_DOUBLE_EQ(Timers["phase"], 0.75);
}

TEST(StatsRegistry, ValueStatsTrackExtremes) {
  StatsRegistry R;
  for (double X : {3.0, -1.0, 10.0, 4.0})
    R.recordValue("v", X);
  ValueStats V = R.getValue("v");
  EXPECT_EQ(V.Count, 4u);
  EXPECT_DOUBLE_EQ(V.Sum, 16.0);
  EXPECT_DOUBLE_EQ(V.Min, -1.0);
  EXPECT_DOUBLE_EQ(V.Max, 10.0);
  EXPECT_DOUBLE_EQ(V.mean(), 4.0);
}

TEST(StatsRegistry, HistogramMergeMatchesSequentialAdds) {
  // Merging two partial series must equal adding every sample to one
  // series, in any order.
  ValueStats A, B, All;
  for (double X : {5.0, 1.0, 9.0}) {
    A.add(X);
    All.add(X);
  }
  for (double X : {-2.0, 7.0}) {
    B.add(X);
    All.add(X);
  }
  ValueStats Merged = A;
  Merged.merge(B);
  EXPECT_EQ(Merged.Count, All.Count);
  EXPECT_DOUBLE_EQ(Merged.Sum, All.Sum);
  EXPECT_DOUBLE_EQ(Merged.Min, All.Min);
  EXPECT_DOUBLE_EQ(Merged.Max, All.Max);

  // Merging into an empty series copies; merging an empty one is a no-op.
  ValueStats Empty;
  Empty.merge(A);
  EXPECT_EQ(Empty.Count, A.Count);
  ValueStats Copy = A;
  Copy.merge(ValueStats());
  EXPECT_EQ(Copy.Count, A.Count);
  EXPECT_DOUBLE_EQ(Copy.Sum, A.Sum);
}

TEST(StatsRegistry, MergeFromCombinesAllSections) {
  StatsRegistry A, B;
  A.addCounter("c", 1);
  A.addTime("t", 0.5);
  A.recordValue("v", 2.0);
  B.addCounter("c", 2);
  B.addCounter("only_b", 3);
  B.addTime("t", 0.25);
  B.recordValue("v", 6.0);
  A.mergeFrom(B);
  EXPECT_EQ(A.getCounter("c"), 3u);
  EXPECT_EQ(A.getCounter("only_b"), 3u);
  EXPECT_DOUBLE_EQ(A.getTime("t"), 0.75);
  EXPECT_EQ(A.getValue("v").Count, 2u);
  EXPECT_DOUBLE_EQ(A.getValue("v").Max, 6.0);
}

TEST(StatsRegistry, JsonParsesBackWithAllSections) {
  StatsRegistry R;
  R.addCounter("ops \"quoted\"", 12);
  R.recordValue("len", 3.5);
  R.addTime("phase", 0.125);
  support::json::JVal Doc;
  std::string Err;
  ASSERT_TRUE(support::json::parse(R.toJson(), Doc, Err)) << Err;
  ASSERT_EQ(Doc.K, support::json::JVal::Object);
  EXPECT_EQ(Doc["counters"]["ops \"quoted\""].Num, 12);
  EXPECT_EQ(Doc["values"]["len"]["count"].Num, 1);
  EXPECT_DOUBLE_EQ(Doc["values"]["len"]["mean"].Num, 3.5);
  EXPECT_DOUBLE_EQ(Doc["timers_sec"]["phase"].Num, 0.125);
}

TEST(Telemetry, ScopedSessionInstallsAndNests) {
  EXPECT_FALSE(enabled());
  TelemetrySession Outer;
  {
    ScopedSession S1(Outer);
    EXPECT_EQ(session(), &Outer);
    counter("hits");
    TelemetrySession Inner;
    {
      ScopedSession S2(Inner);
      EXPECT_EQ(session(), &Inner);
      counter("hits");
    }
    EXPECT_EQ(session(), &Outer);
    counter("hits");
  }
  EXPECT_FALSE(enabled());
  EXPECT_EQ(Outer.stats().getCounter("hits"), 2u);
}

TEST(Telemetry, ScopedTimerRecordsTraceAndTimer) {
  TelemetrySession S;
  {
    ScopedSession Scope(S);
    {
      Span T("unit.phase");
    }
    instant("unit.mark");
    Span Stopped("unit.early");
    Stopped.stop();
    Stopped.stop(); // idempotent
  }
  EXPECT_EQ(S.trace().numEvents(), 3u);
  EXPECT_GE(S.stats().getTime("unit.phase"), 0.0);
  auto Timers = S.stats().timerSnapshot();
  EXPECT_TRUE(Timers.count("unit.early"));
}

TEST(Telemetry, TraceJsonIsWellFormedTraceEventFormat) {
  TelemetrySession S;
  {
    ScopedSession Scope(S);
    {
      Span T("phase \"one\"", "cat");
    }
    instant("marker");
  }
  support::json::JVal Doc;
  std::string Err;
  ASSERT_TRUE(support::json::parse(S.trace().toJson(), Doc, Err)) << Err;
  ASSERT_EQ(Doc.K, support::json::JVal::Object);
  ASSERT_TRUE(Doc.has("traceEvents"));
  const support::json::JVal &Events = Doc["traceEvents"];
  ASSERT_EQ(Events.K, support::json::JVal::Array);
  ASSERT_EQ(Events.Arr.size(), 2u);
  for (const support::json::JVal &E : Events.Arr) {
    ASSERT_EQ(E.K, support::json::JVal::Object);
    // The keys chrome://tracing / Perfetto require on every event.
    for (const char *Key : {"name", "cat", "ph", "ts", "pid", "tid"})
      EXPECT_TRUE(E.has(Key)) << "missing key " << Key;
    std::string Ph = E["ph"].Str;
    EXPECT_TRUE(Ph == "X" || Ph == "i") << "unexpected phase " << Ph;
    if (Ph == "X") {
      EXPECT_TRUE(E.has("dur"));
    }
  }
  EXPECT_EQ(Events.Arr[0]["name"].Str, "phase \"one\"");
}

TEST(Telemetry, PipelinePhasesAppearInTraceAndStats) {
  auto P = buildWorkload("fir");
  ASSERT_TRUE(P);
  TelemetrySession S;
  {
    ScopedSession Scope(S);
    PreparedProgram PP = prepareProgram(*P);
    ASSERT_TRUE(PP.Ok);
    PipelineOptions Opt;
    Opt.Strategy = StrategyKind::GDP;
    PipelineResult R = runStrategy(PP, Opt);
    EXPECT_GT(R.Cycles, 0u);
  }
  // Every pipeline phase shows up as a complete trace event.
  bool SawPrepare = false, SawDataPart = false, SawRhop = false,
       SawSchedule = false;
  for (const TraceEvent &E : S.trace().events()) {
    if (E.Phase != 'X')
      continue;
    SawPrepare |= E.Name == "pipeline.prepare";
    SawDataPart |= E.Name == "pipeline.data_partition";
    SawRhop |= E.Name == "pipeline.rhop";
    SawSchedule |= E.Name == "pipeline.schedule";
  }
  EXPECT_TRUE(SawPrepare);
  EXPECT_TRUE(SawDataPart);
  EXPECT_TRUE(SawRhop);
  EXPECT_TRUE(SawSchedule);
  // The instrumented passes contribute a rich counter set (the acceptance
  // bar is >= 10 distinct counters for one gdp-strategy run).
  EXPECT_GE(S.stats().numCounters(), 10u);
  EXPECT_EQ(S.stats().getCounter("gdp.runs"), 1u);
  EXPECT_GE(S.stats().getCounter("rhop.regions"), 1u);
  EXPECT_GE(S.stats().getCounter("sched.blocks_scheduled"), 1u);
  EXPECT_GE(S.stats().getCounter("interp.steps"), 1u);
}

TEST(Telemetry, StatsDeterministicAcrossIdenticalRuns) {
  // The deterministic sections (counters and value histograms) of two
  // identical pipeline runs must match exactly; only timers may differ.
  auto RunOnce = [](TelemetrySession &S) {
    auto P = buildWorkload("viterbi");
    ASSERT_TRUE(P);
    ScopedSession Scope(S);
    PreparedProgram PP = prepareProgram(*P);
    ASSERT_TRUE(PP.Ok);
    for (StrategyKind K : {StrategyKind::GDP, StrategyKind::ProfileMax,
                           StrategyKind::Naive}) {
      PipelineOptions Opt;
      Opt.Strategy = K;
      runStrategy(PP, Opt);
    }
  };
  TelemetrySession A, B;
  RunOnce(A);
  RunOnce(B);
  EXPECT_EQ(A.stats().counterSnapshot(), B.stats().counterSnapshot());
  ASSERT_GE(A.stats().numCounters(), 10u);
  for (const char *Name :
       {"partitioner.final_cut", "gdp.cut_weight", "sched.block_length"}) {
    ValueStats VA = A.stats().getValue(Name);
    ValueStats VB = B.stats().getValue(Name);
    EXPECT_EQ(VA.Count, VB.Count) << Name;
    EXPECT_DOUBLE_EQ(VA.Sum, VB.Sum) << Name;
    EXPECT_DOUBLE_EQ(VA.Min, VB.Min) << Name;
    EXPECT_DOUBLE_EQ(VA.Max, VB.Max) << Name;
  }
}

TEST(Telemetry, DisabledFastPathAllocatesNothing) {
  ASSERT_FALSE(enabled());
  uint64_t Before = GAllocCount.load();
  for (int I = 0; I != 1000; ++I) {
    counter("hot.counter", 3);
    value("hot.value", 1.5);
    instant("hot.marker");
    Span T("hot.phase");
    // Spans with attributes must be equally free when no session is
    // installed: attr() formats only behind the enabled check.
    Span Sp("hot.span", "cat");
    Sp.attr("strategy", "gdp").attr("clusters", 4u).attr("score", 0.5);
  }
  EXPECT_EQ(GAllocCount.load(), Before)
      << "disabled telemetry touched the allocator";
}

TEST(Telemetry, SpanParentChildLinksInTrace) {
  TelemetrySession S;
  uint64_t OuterId = 0;
  {
    ScopedSession Scope(S);
    Span Outer("outer", "t");
    OuterId = Outer.id();
    EXPECT_NE(OuterId, 0u);
    {
      Span Inner("inner", "t");
      EXPECT_NE(Inner.id(), 0u);
      EXPECT_NE(Inner.id(), OuterId);
    }
    instant("mark");
  }
  // Events flush innermost-first: inner, mark, outer.
  const auto &Events = S.trace().events();
  ASSERT_EQ(Events.size(), 3u);
  const TraceEvent &Inner = Events[0], &Mark = Events[1],
                   &Outer = Events[2];
  EXPECT_EQ(Outer.Name, "outer");
  EXPECT_EQ(Outer.SpanId, OuterId);
  EXPECT_EQ(Outer.ParentId, 0u);
  EXPECT_EQ(Inner.Name, "inner");
  EXPECT_EQ(Inner.ParentId, OuterId);
  // The instant fired after Inner closed, so it hangs off Outer again.
  EXPECT_EQ(Mark.Name, "mark");
  EXPECT_EQ(Mark.ParentId, OuterId);
}

TEST(Telemetry, SpanAttributesRenderInTraceJson) {
  TelemetrySession S;
  {
    ScopedSession Scope(S);
    Span Sp("pipeline.strategy", "pipeline");
    Sp.attr("strategy", "gdp").attr("clusters", 2u).attr("ratio", 0.25);
  }
  support::json::JVal Doc;
  std::string Err;
  ASSERT_TRUE(support::json::parse(S.trace().toJson(), Doc, Err)) << Err;
  const support::json::JVal &E = Doc["traceEvents"].Arr.at(0);
  ASSERT_TRUE(E.has("args"));
  const support::json::JVal &Args = E["args"];
  EXPECT_GT(Args["span"].Num, 0);
  EXPECT_EQ(Args["strategy"].Str, "gdp");
  EXPECT_EQ(Args["clusters"].Num, 2);
  EXPECT_DOUBLE_EQ(Args["ratio"].Num, 0.25);
}

TEST(Telemetry, MergeReparentsShardSpansAndTagsTask) {
  TelemetrySession Main;
  ScopedSession Scope(Main);
  Span Root("root", "t");
  uint64_t RootId = Root.id();

  // A shard session stamped the way ThreadPool task bodies do it: adopt
  // the submitting context plus a task index, then record under its own
  // ScopedSession on (conceptually) another thread.
  TelemetrySession Shard;
  Shard.adoptTaskContext(SpanContext{RootId}, 7);
  {
    ScopedSession ShardScope(Shard);
    Span Task("task.work", "t");
    instant("task.mark");
  }
  Main.mergeFrom(Shard);
  Root.stop();

  const auto &Events = Main.trace().events();
  ASSERT_EQ(Events.size(), 3u);
  const TraceEvent *Work = nullptr, *Mark = nullptr;
  for (const TraceEvent &E : Events) {
    if (E.Name == "task.work")
      Work = &E;
    if (E.Name == "task.mark")
      Mark = &E;
  }
  ASSERT_TRUE(Work && Mark);
  // The shard's root-level span was re-parented onto the submitting span,
  // its id remapped clear of Main's id space, and both events tagged with
  // the originating task index.
  EXPECT_EQ(Work->ParentId, RootId);
  EXPECT_NE(Work->SpanId, 0u);
  EXPECT_NE(Work->SpanId, RootId);
  EXPECT_EQ(Work->TaskIndex, 7);
  EXPECT_EQ(Mark->TaskIndex, 7);
  // The nested instant still parents onto the shard's own span (remapped),
  // not the merge parent.
  EXPECT_EQ(Mark->ParentId, Work->SpanId);
}

TEST(Telemetry, DisabledTraceHookAllocatesNothing) {
  // The interpreter's optional trace sink (profile/ExecTrace.h) must cost
  // nothing when left unset. The baseline (no sink) is exactly the
  // disabled path, so its allocation count must be identical across
  // repeated runs — any hidden trace bookkeeping would show up here — and
  // strictly below a traced run, which really records events.
  auto CountRun = [](ExecTrace *Trace) {
    auto P = buildWorkload("fir");
    EXPECT_TRUE(P);
    Interpreter I(*P);
    I.setTrace(Trace);
    uint64_t Before = GAllocCount.load();
    InterpResult R = I.run();
    uint64_t After = GAllocCount.load();
    EXPECT_TRUE(R.Ok) << R.Error;
    return After - Before;
  };
  uint64_t First = CountRun(nullptr);
  uint64_t Second = CountRun(nullptr);
  EXPECT_EQ(First, Second)
      << "the untraced interpreter must allocate deterministically";
  ExecTrace Trace;
  uint64_t Traced = CountRun(&Trace);
  EXPECT_GT(Trace.numBlockEvents(), 0u);
  EXPECT_GT(Traced, First) << "tracing must be the only path that records";
}

// --- Validation of the bench harness's --json output. The ctest fixture
// bench_json_emit produces the file and exports GDP_BENCH_JSON; when the
// suite runs standalone the test skips.
TEST(BenchJsonFile, RecordsAreWellFormed) {
  const char *Path = std::getenv("GDP_BENCH_JSON");
  if (!Path || !*Path)
    GTEST_SKIP() << "GDP_BENCH_JSON not set (run via the ctest fixture)";
  std::ifstream In(Path);
  if (!In)
    GTEST_SKIP() << "bench JSON file not present: " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  support::json::JVal Doc;
  std::string Err;
  ASSERT_TRUE(support::json::parse(Buf.str(), Doc, Err)) << Err;
  EXPECT_EQ(Doc["schema"].Str, "gdp-bench-v1");
  const support::json::JVal &Records = Doc["records"];
  ASSERT_EQ(Records.K, support::json::JVal::Array);
  ASSERT_FALSE(Records.Arr.empty());
  std::set<std::pair<std::string, std::string>> Seen;
  for (const support::json::JVal &R : Records.Arr) {
    for (const char *Key :
         {"benchmark", "strategy", "move_latency", "machine", "cycles",
          "dynamic_moves", "static_moves", "rhop_runs", "prepare_sec",
          "data_partition_sec", "rhop_sec", "schedule_sec", "counters"})
      EXPECT_TRUE(R.has(Key)) << "record missing " << Key;
    EXPECT_GT(R["cycles"].Num, 0) << R["benchmark"].Str;
    // The machine-configuration metadata of the evaluated record.
    const support::json::JVal &M = R["machine"];
    ASSERT_EQ(M.K, support::json::JVal::Object) << R["benchmark"].Str;
    for (const char *Key : {"clusters", "fu_per_cluster", "move_latency",
                            "move_bandwidth", "memory", "cluster_memory_bytes"})
      EXPECT_TRUE(M.has(Key)) << "machine metadata missing " << Key;
    EXPECT_GT(M["clusters"].Num, 0);
    EXPECT_EQ(M["move_latency"].Num, R["move_latency"].Num);
    EXPECT_TRUE(M["memory"].Str == "partitioned" || M["memory"].Str == "unified")
        << M["memory"].Str;
    const support::json::JVal &FU = M["fu_per_cluster"];
    ASSERT_EQ(FU.K, support::json::JVal::Object);
    for (const char *Kind : {"int", "float", "mem", "branch"})
      EXPECT_TRUE(FU.has(Kind)) << "fu_per_cluster missing " << Kind;
    EXPECT_EQ(R["counters"].K, support::json::JVal::Object);
    EXPECT_GE(R["counters"].Obj.size(), 5u);
    Seen.insert({R["benchmark"].Str, R["strategy"].Str});
  }
  // One record per (benchmark, strategy): no duplicates collapsed away.
  EXPECT_EQ(Seen.size(), Records.Arr.size());
}

} // namespace
