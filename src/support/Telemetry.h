//===- support/Telemetry.h - Telemetry facade -------------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `gdp::telemetry` subsystem's entry point. A TelemetrySession bundles
/// a StatsRegistry (counters, value histograms, quantile histograms, phase
/// timers) with a TraceRecorder (Chrome trace_event log). Instrumented
/// code talks to the *installed* session through free helpers that compile
/// to a single branch-on-null when no session is attached:
///
///   telemetry::counter("rhop.moves", N);          // no-op when disabled
///   telemetry::value("sched.block_length", Len);
///   { telemetry::Span S("pipeline.rhop");         // timer + trace span
///     S.attr("strategy", "gdp").attr("clusters", 2);
///     ... }
///
/// Spans form a per-thread tree: a Span's parent is whatever span was live
/// on the thread when it was constructed. Across ThreadPool tasks the tree
/// is stitched at merge time — the pool captures the submitting thread's
/// span context, task bodies read it back with `inheritedContext()`, and a
/// shard session stamped with `adoptTaskContext()` re-parents its root
/// spans (and tags every event with the task index) when it merges into
/// the parent session. Merging in input order keeps the whole structure
/// deterministic at any thread count.
///
/// Sessions are installed/uninstalled with ScopedSession (RAII). The
/// evaluation driver (sim/Evaluate.h) gives every strategy evaluation its
/// own shard, whose `pipeline.*` span timers are the evaluation's phase
/// times; code run with no session installed costs nothing: no
/// allocation, no locking, no clock reads.
///
/// The disabled fast path is allocation-free by construction: every helper
/// takes `const char *` names and checks the global pointer before touching
/// anything that could allocate; Span::attr returns before formatting.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_TELEMETRY_H
#define GDP_SUPPORT_TELEMETRY_H

#include "support/StatsRegistry.h"
#include "support/TraceEvent.h"

#include <cstdint>

namespace gdp {
namespace telemetry {

/// The span identity a task inherits from its submitting thread. Ids live
/// in the id space of the session that was installed where the context was
/// captured — i.e. the session the task's shard will merge into.
struct SpanContext {
  uint64_t SpanId = 0;
};

/// One observability session: statistics plus a trace log.
class TelemetrySession {
public:
  StatsRegistry &stats() { return Stats; }
  const StatsRegistry &stats() const { return Stats; }
  TraceRecorder &trace() { return Trace; }
  const TraceRecorder &trace() const { return Trace; }

  /// Stamps this session as the shard of ThreadPool task \p TaskIndex,
  /// spawned under \p Parent (in the merge target's id space). When the
  /// shard later merges, its root spans re-parent onto \p Parent and every
  /// event is tagged with the task index.
  void adoptTaskContext(SpanContext Parent, int32_t TaskIndex) {
    MergeParentSpan = Parent.SpanId;
    MergeTaskIndex = TaskIndex;
  }

  /// Folds a per-task shard session into this one: counters, histograms
  /// and timers add up exactly; trace events append with rebased
  /// timestamps, renumbered span ids, and the shard's adopted parent/task
  /// attribution. Callers merge shards in input order so the result is
  /// identical at any thread count.
  void mergeFrom(const TelemetrySession &O) {
    Stats.mergeFrom(O.stats());
    Trace.mergeFrom(O.trace(), O.MergeParentSpan, O.MergeTaskIndex);
  }

private:
  StatsRegistry Stats;
  TraceRecorder Trace;
  uint64_t MergeParentSpan = 0;
  int32_t MergeTaskIndex = -1;
};

namespace detail {
/// The installed session (null = telemetry disabled). Thread-local: each
/// thread sees only the session it installed itself, so concurrent
/// pipeline evaluations record into disjoint shard sessions with no
/// locking or cross-thread visibility at all. The pool-based callers
/// install one shard per task and merge them at join time, in input
/// order, which keeps counters exact and deterministic (see
/// docs/PARALLELISM.md).
///
/// All three are constinit: with no dynamic initializer to run, GCC reads
/// them directly instead of through a TLS wrapper function, which UBSan
/// reports as a null-pointer load.
extern constinit thread_local TelemetrySession *Current;

/// Innermost live span on this thread (0 = none), in the id space of the
/// installed session. Maintained by Span; saved/zeroed/restored by
/// ScopedSession so a shard session never parents onto a foreign id.
extern constinit thread_local uint64_t CurrentSpanId;

/// The span context captured when the currently-executing ThreadPool task
/// was submitted (0 = none). Set by the pool around task bodies.
extern constinit thread_local uint64_t InheritedSpanId;
} // namespace detail

/// The session installed on this thread, or null when telemetry is off.
inline TelemetrySession *session() { return detail::Current; }

/// True when a session is attached on this thread.
inline bool enabled() { return session() != nullptr; }

/// The innermost live span on this thread (SpanId 0 when none).
inline SpanContext currentContext() { return {detail::CurrentSpanId}; }

/// The span context the running ThreadPool task inherited from its
/// submitter (SpanId 0 when none). Task bodies pass this (plus their task
/// index) to TelemetrySession::adoptTaskContext on their shard session.
inline SpanContext inheritedContext() { return {detail::InheritedSpanId}; }

/// RAII guard the ThreadPool wraps around task bodies to expose the
/// submitting thread's span context to the task.
class InheritedContextScope {
public:
  explicit InheritedContextScope(SpanContext C)
      : Prev(detail::InheritedSpanId) {
    detail::InheritedSpanId = C.SpanId;
  }
  ~InheritedContextScope() { detail::InheritedSpanId = Prev; }
  InheritedContextScope(const InheritedContextScope &) = delete;
  InheritedContextScope &operator=(const InheritedContextScope &) = delete;

private:
  uint64_t Prev;
};

/// Installs \p S on the calling thread (pass null to disable). Returns the
/// previous session so scopes can nest.
TelemetrySession *install(TelemetrySession *S);

/// RAII installation of a session for one region of code. Also parks the
/// thread's span stack: spans opened under the new session are roots in
/// its id space, and the previous stack is restored on exit.
class ScopedSession {
public:
  explicit ScopedSession(TelemetrySession &S)
      : Prev(install(&S)), PrevSpan(detail::CurrentSpanId) {
    detail::CurrentSpanId = 0;
  }
  ~ScopedSession() {
    detail::CurrentSpanId = PrevSpan;
    install(Prev);
  }
  ScopedSession(const ScopedSession &) = delete;
  ScopedSession &operator=(const ScopedSession &) = delete;

private:
  TelemetrySession *Prev;
  uint64_t PrevSpan;
};

/// Adds \p Delta to counter \p Name in the installed session, if any.
inline void counter(const char *Name, uint64_t Delta = 1) {
  if (TelemetrySession *S = session())
    S->stats().addCounter(Name, Delta);
}

/// Records one histogram sample in the installed session, if any.
inline void value(const char *Name, double V) {
  if (TelemetrySession *S = session())
    S->stats().recordValue(Name, V);
}

/// Drops an instant marker into the trace of the installed session,
/// parented to the innermost live span.
inline void instant(const char *Name, const char *Category = "mark") {
  if (TelemetrySession *S = session())
    S->trace().addInstant(Name, Category, detail::CurrentSpanId);
}

/// RAII span: a phase timer with identity. On destruction adds the elapsed
/// seconds to the timer named \p Name and appends a complete trace event
/// carrying the span id, the parent span id (whatever span was live on
/// this thread at construction) and any attributes attached with attr().
/// Inert (no clock read, no allocation) when no session is installed at
/// construction.
class Span {
public:
  explicit Span(const char *Name, const char *Category = "phase")
      : S(session()), Name(Name), Category(Category) {
    if (!S)
      return;
    StartUs = S->trace().nowUs();
    Id = S->trace().allocSpanId();
    Parent = detail::CurrentSpanId;
    detail::CurrentSpanId = Id;
  }

  /// Attaches a typed attribute (chainable). No-ops when disabled.
  Span &attr(const char *Key, const char *V);
  Span &attr(const char *Key, const std::string &V);
  Span &attr(const char *Key, uint64_t V);
  Span &attr(const char *Key, int64_t V);
  Span &attr(const char *Key, double V);
  Span &attr(const char *Key, int V) {
    return attr(Key, static_cast<int64_t>(V));
  }
  Span &attr(const char *Key, unsigned V) {
    return attr(Key, static_cast<uint64_t>(V));
  }

  /// This span's id (0 when telemetry is disabled).
  uint64_t id() const { return Id; }

  /// Context handle for propagating parentage to ThreadPool tasks.
  SpanContext context() const { return {Id}; }

  /// Ends the span now instead of at scope exit (idempotent).
  void stop() {
    if (!S)
      return;
    uint64_t EndUs = S->trace().nowUs();
    uint64_t Dur = EndUs >= StartUs ? EndUs - StartUs : 0;
    S->trace().addSpan(Name, Category, StartUs, Dur, Id, Parent,
                       std::move(Args));
    S->stats().addTime(Name, static_cast<double>(Dur) * 1e-6);
    detail::CurrentSpanId = Parent;
    S = nullptr;
  }

  ~Span() { stop(); }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  TelemetrySession *S;
  const char *Name;
  const char *Category;
  uint64_t StartUs = 0;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  std::vector<TraceArg> Args;
};

} // namespace telemetry
} // namespace gdp

#endif // GDP_SUPPORT_TELEMETRY_H
