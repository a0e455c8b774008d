//===- support/TraceEvent.cpp - Chrome trace_event recorder -----------------===//

#include "support/TraceEvent.h"

#include "support/Json.h"
#include "support/StrUtil.h"

#include <thread>

using namespace gdp;
using namespace gdp::telemetry;
using gdp::support::json::escape;

namespace {

/// Small dense thread ids for the trace (std::thread::id hashes are
/// unreadable in a viewer).
uint32_t currentTid() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Tid = Next.fetch_add(1);
  return Tid;
}

/// The event's `args` object: span identity first, then the attributes in
/// recording order. Empty string when there is nothing to show.
std::string argsJson(const TraceEvent &E) {
  std::string Out;
  auto Append = [&Out](const std::string &Piece) {
    Out += Out.empty() ? "" : ", ";
    Out += Piece;
  };
  if (E.SpanId)
    Append(formatStr("\"span\": %llu",
                     static_cast<unsigned long long>(E.SpanId)));
  if (E.ParentId)
    Append(formatStr("\"parent\": %llu",
                     static_cast<unsigned long long>(E.ParentId)));
  if (E.TaskIndex >= 0)
    Append(formatStr("\"task\": %d", E.TaskIndex));
  for (const TraceArg &A : E.Args) {
    if (A.IsString)
      Append(formatStr("\"%s\": \"%s\"", escape(A.Key).c_str(),
                       escape(A.Val).c_str()));
    else
      Append(formatStr("\"%s\": %s", escape(A.Key).c_str(),
                       A.Val.c_str()));
  }
  if (Out.empty())
    return "";
  return ", \"args\": {" + Out + "}";
}

} // namespace

TraceRecorder::TraceRecorder() : Epoch(std::chrono::steady_clock::now()) {}

uint64_t TraceRecorder::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

uint64_t TraceRecorder::allocSpanId() {
  return NextId.fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::addSpan(const std::string &Name,
                            const std::string &Category, uint64_t StartUs,
                            uint64_t DurUs, uint64_t SpanId,
                            uint64_t ParentId, std::vector<TraceArg> Args) {
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.Phase = 'X';
  E.TimestampUs = StartUs;
  E.DurationUs = DurUs;
  E.Tid = currentTid();
  E.SpanId = SpanId;
  E.ParentId = ParentId;
  E.Args = std::move(Args);
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(std::move(E));
}

void TraceRecorder::addInstant(const std::string &Name,
                               const std::string &Category,
                               uint64_t ParentId) {
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.Phase = 'i';
  E.TimestampUs = nowUs();
  E.Tid = currentTid();
  E.ParentId = ParentId;
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(std::move(E));
}

void TraceRecorder::mergeFrom(const TraceRecorder &O, uint64_t ParentSpanId,
                              int32_t TaskIndex) {
  std::vector<TraceEvent> Theirs = O.events();
  // O's epoch is later than (or equal to) ours when O is a shard created
  // mid-run; shift its timestamps into our timebase. A negative offset
  // (O constructed first) clamps to 0 rather than underflowing.
  int64_t OffsetUs = std::chrono::duration_cast<std::chrono::microseconds>(
                         O.Epoch - Epoch)
                         .count();
  // Reserve a contiguous id range here and shift the shard's ids into it:
  // shard id i in [1, TheirNext) maps to IdBase + (i - 1). Merging in
  // input order keeps the renumbering deterministic.
  uint64_t TheirNext = O.NextId.load(std::memory_order_relaxed);
  uint64_t IdOffset = 0;
  if (TheirNext > 1)
    IdOffset =
        NextId.fetch_add(TheirNext - 1, std::memory_order_relaxed) - 1;
  std::lock_guard<std::mutex> Lock(Mu);
  for (TraceEvent &E : Theirs) {
    int64_t Ts = static_cast<int64_t>(E.TimestampUs) + OffsetUs;
    E.TimestampUs = Ts > 0 ? static_cast<uint64_t>(Ts) : 0;
    if (E.SpanId)
      E.SpanId += IdOffset;
    if (E.ParentId)
      E.ParentId += IdOffset;
    else
      E.ParentId = ParentSpanId;
    if (E.TaskIndex < 0)
      E.TaskIndex = TaskIndex;
    Events.push_back(std::move(E));
  }
}

size_t TraceRecorder::numEvents() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events;
}

std::string TraceRecorder::toJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\"traceEvents\": [";
  bool First = true;
  for (const TraceEvent &E : Events) {
    Out += First ? "\n" : ",\n";
    First = false;
    if (E.Phase == 'X')
      Out += formatStr(
          "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
          "\"ts\": %llu, \"dur\": %llu, \"pid\": 1, \"tid\": %u%s}",
          escape(E.Name).c_str(), escape(E.Category).c_str(),
          static_cast<unsigned long long>(E.TimestampUs),
          static_cast<unsigned long long>(E.DurationUs), E.Tid,
          argsJson(E).c_str());
    else
      Out += formatStr(
          "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", "
          "\"ts\": %llu, \"s\": \"t\", \"pid\": 1, \"tid\": %u%s}",
          escape(E.Name).c_str(), escape(E.Category).c_str(),
          static_cast<unsigned long long>(E.TimestampUs), E.Tid,
          argsJson(E).c_str());
  }
  Out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return Out;
}
