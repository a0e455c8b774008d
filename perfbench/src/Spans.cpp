//===- perfbench/src/Spans.cpp - In-memory span recorder ------------------===//

#include "Spans.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

/// The calling thread's open spans, innermost last.
thread_local std::vector<uint64_t> OpenSpans;

unsigned threadIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Index = Next.fetch_add(1);
  return Index;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

} // namespace

SpanRecorder::SpanRecorder(std::string RunId)
    : RunId(std::move(RunId)), Epoch(Clock::now()) {}

uint64_t SpanRecorder::open(const char *Name, const std::string &Detail,
                            uint64_t Parent) {
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
  uint64_t ParentId = OpenSpans.empty() ? Parent : OpenSpans.back();
  uint64_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Id = Spans.size() + 1;
    Spans.push_back({Id, ParentId, Name, Detail, Now, Now, threadIndex()});
  }
  OpenSpans.push_back(Id);
  return Id;
}

void SpanRecorder::close(uint64_t Id) {
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Id - 1].EndUs = Now;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

bool SpanRecorder::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  std::fprintf(F, "{\"run_id\": %s, \"spans\": [", jsonString(RunId).c_str());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"id\": %llu, \"parent\": %llu, \"name\": %s, "
                 "\"detail\": %s, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"thread\": %u, \"run_id\": %s}",
                 I ? "," : "", static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 jsonString(S.Name).c_str(), jsonString(S.Detail).c_str(),
                 S.StartUs, S.EndUs, S.Thread, jsonString(RunId).c_str());
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder &R, const char *Name,
                       const std::string &Detail, uint64_t Parent)
    : R(R) {
  if (!R.enabled())
    return;
  Id = R.open(Name, Detail, Parent);
  Start = Clock::now();
}

double ScopedSpan::stop() {
  if (Id == 0)
    return 0;
  if (Seconds < 0) {
    Seconds = secondsSince(Start);
    R.close(Id);
  }
  return Seconds;
}

} // namespace perfbench
