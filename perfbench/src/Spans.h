//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Spans of the traced run: one per direct call into a layer, with name,
// start, end, parent span and the run id. They stay in memory until the
// run ends and are then written out as one JSON file.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Bench.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
public:
  explicit SpanRecorder(std::string RunId);
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  /// When off, ScopedSpan neither reads the clock nor stores a span (the
  /// untraced pass).
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Opens a span; its parent is the calling thread's innermost open span
  /// or, when the thread has none, \p Parent. Returns its id.
  uint64_t open(const char *Name, const std::string &Detail, uint64_t Parent);
  /// Closes span \p Id (the calling thread's innermost open span).
  void close(uint64_t Id);

  size_t size() const;
  /// Writes every span to \p Path. False on an I/O error.
  bool write(const std::string &Path) const;

private:
  struct Span {
    uint64_t Id, Parent;
    std::string Name, Detail;
    double StartUs, EndUs;
    unsigned Thread;
  };
  std::string RunId;
  bool Enabled = true;
  Clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<Span> Spans; ///< Guarded by Mu.
};

/// Times one call and records it as a span; does nothing when recording
/// is off.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Name,
             const std::string &Detail = std::string(), uint64_t Parent = 0);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Ends the span now; returns its duration in seconds, 0 when recording
  /// is off (idempotent).
  double stop();
  /// The span's id; 0 when recording is off.
  uint64_t id() const { return Id; }

private:
  SpanRecorder &R;
  uint64_t Id = 0;
  Clock::time_point Start;
  double Seconds = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
