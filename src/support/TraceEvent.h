//===- support/TraceEvent.h - Chrome trace_event recorder -------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recorder for Chrome's `trace_event` JSON format (the "Trace Event
/// Format" consumed by chrome://tracing and Perfetto). Phase timers emit
/// complete ("X") duration events; instant markers emit "i" events. The
/// exporter writes `{"traceEvents": [...]}` which both viewers accept.
///
/// Events may carry a span identity: a recorder-unique `SpanId`, the
/// `ParentId` of the enclosing span, the index of the ThreadPool task the
/// event was recorded under, and a list of typed attributes. All of it is
/// exported through the event's `args` object so the viewers display true
/// parentage and per-task attribution instead of flat timelines.
///
/// Span ids are allocated per recorder. `mergeFrom` rebases a shard
/// recorder's ids into this recorder's id space (offsetting them past the
/// ids already allocated here) and re-parents the shard's root spans onto
/// the merge parent, so task-local span trees hang off the span that
/// spawned the tasks. Because shards merge in input order, the renumbering
/// is deterministic at any thread count.
///
/// Timestamps are microseconds on a steady clock, zeroed at recorder
/// construction so traces start near t=0.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_TRACEEVENT_H
#define GDP_SUPPORT_TRACEEVENT_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gdp {
namespace telemetry {

/// One typed attribute attached to a trace event. `Val` holds the rendered
/// value; `IsString` decides whether the exporter quotes it.
struct TraceArg {
  std::string Key;
  std::string Val;
  bool IsString = false;
};

/// One recorded trace event.
struct TraceEvent {
  std::string Name;
  std::string Category;
  char Phase = 'X';       ///< 'X' complete, 'i' instant.
  uint64_t TimestampUs = 0;
  uint64_t DurationUs = 0; ///< Only meaningful for 'X'.
  uint32_t Tid = 0;
  uint64_t SpanId = 0;    ///< 0 = not a span (plain event).
  uint64_t ParentId = 0;  ///< 0 = root (or adopted at merge time).
  int32_t TaskIndex = -1; ///< Originating ThreadPool task; -1 = none.
  std::vector<TraceArg> Args;
};

/// Thread-safe append-only event log.
class TraceRecorder {
public:
  TraceRecorder();

  /// Microseconds since recorder construction (the trace timebase).
  uint64_t nowUs() const;

  /// Allocates a recorder-unique span id (never 0).
  uint64_t allocSpanId();

  /// Appends a complete event carrying span identity and attributes.
  void addSpan(const std::string &Name, const std::string &Category,
               uint64_t StartUs, uint64_t DurUs, uint64_t SpanId,
               uint64_t ParentId, std::vector<TraceArg> Args);

  /// Appends an instant ("i") event at the current time, parented to
  /// \p ParentId (0 = root).
  void addInstant(const std::string &Name, const std::string &Category,
                  uint64_t ParentId = 0);

  size_t numEvents() const;

  /// Copy of the event log (for tests).
  std::vector<TraceEvent> events() const;

  /// Appends every event of \p O, rebasing its timestamps from O's epoch
  /// onto this recorder's so a merged trace keeps one consistent timebase.
  /// Span ids are offset into this recorder's id space; events with no
  /// parent adopt \p ParentSpanId; events with no task index are tagged
  /// with \p TaskIndex. Used to fold per-task shard recorders into the
  /// parent at join time (in input order, for determinism).
  void mergeFrom(const TraceRecorder &O, uint64_t ParentSpanId = 0,
                 int32_t TaskIndex = -1);

  /// Renders `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
  std::string toJson() const;

private:
  std::chrono::steady_clock::time_point Epoch;
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
};

} // namespace telemetry
} // namespace gdp

#endif // GDP_SUPPORT_TRACEEVENT_H
