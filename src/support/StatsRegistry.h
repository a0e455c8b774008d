//===- support/StatsRegistry.h - Named counters and histograms --*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe registry of named monotonic counters, value histograms and
/// phase timers — the statistics half of the `gdp::telemetry` subsystem
/// (TELEMETRY.md / docs/OBSERVABILITY.md). Counters count deterministic
/// algorithm events (refinement moves, coarsening levels, interpreted
/// steps); timers hold wall-clock seconds and are kept separate so tests
/// can compare the deterministic part of two runs exactly.
///
/// Export is a flat JSON object with stable (sorted) key order, or
/// Prometheus text exposition (version 0.0.4): counters as `counter`,
/// value series as `summary` with p50/p90/p99 quantile labels, timers as
/// `_seconds` counters, names sanitized under a `gdp_` prefix.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_STATSREGISTRY_H
#define GDP_SUPPORT_STATSREGISTRY_H

#include "support/Histogram.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace gdp {
namespace telemetry {

/// Streaming summary of a series of values (count/sum/min/max), used for
/// per-event distributions such as block schedule lengths or cut weights.
struct ValueStats {
  uint64_t Count = 0;
  double Sum = 0;
  double Min = 0;
  double Max = 0;

  void add(double X) {
    if (Count == 0) {
      Min = Max = X;
    } else {
      if (X < Min)
        Min = X;
      if (X > Max)
        Max = X;
    }
    ++Count;
    Sum += X;
  }

  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0; }

  /// Merges another series into this one (order-independent).
  void merge(const ValueStats &O) {
    if (O.Count == 0)
      return;
    if (Count == 0) {
      *this = O;
      return;
    }
    Count += O.Count;
    Sum += O.Sum;
    if (O.Min < Min)
      Min = O.Min;
    if (O.Max > Max)
      Max = O.Max;
  }
};

/// Thread-safe collection of named statistics.
class StatsRegistry {
public:
  /// Adds \p Delta to the monotonic counter \p Name (created at 0).
  void addCounter(const std::string &Name, uint64_t Delta);

  /// Records one sample of the value histogram \p Name. Feeds both the
  /// streaming summary (ValueStats) and the log-bucketed quantile
  /// histogram, so every value metric gets p50/p90/p99 for free.
  void recordValue(const std::string &Name, double Value);

  /// Adds \p Seconds to the wall-clock timer \p Name.
  void addTime(const std::string &Name, double Seconds);

  /// Current value of a counter (0 if never touched).
  uint64_t getCounter(const std::string &Name) const;

  /// Current accumulated seconds of a timer (0 if never touched).
  double getTime(const std::string &Name) const;

  /// Snapshot of a value histogram (zero stats if never touched).
  ValueStats getValue(const std::string &Name) const;

  /// Snapshot of the quantile histogram of \p Name (empty if untouched).
  LogHistogram getQuantileHistogram(const std::string &Name) const;

  /// Quantile \p Q of the value series \p Name (0 if never touched).
  double quantile(const std::string &Name, double Q) const;

  /// Number of distinct counters.
  size_t numCounters() const;

  /// Copy of the counter table (for diffing before/after a region).
  std::map<std::string, uint64_t> counterSnapshot() const;

  /// Copy of the timer table.
  std::map<std::string, double> timerSnapshot() const;

  /// Copy of the value-summary table.
  std::map<std::string, ValueStats> valueSnapshot() const;

  /// Copy of the quantile-histogram table.
  std::map<std::string, LogHistogram> quantileSnapshot() const;

  /// Merges every counter, histogram and timer of \p O into this registry.
  void mergeFrom(const StatsRegistry &O);

  /// Merges a decoded value summary into series \p Name — the serving
  /// layer's binary stats codec reconstructs remote registries with these
  /// (serve/Wire.h); exact, like mergeFrom.
  void mergeValue(const std::string &Name, const ValueStats &V);

  /// Merges a decoded quantile histogram into series \p Name.
  void mergeQuantile(const std::string &Name, const LogHistogram &H);

  /// Drops all recorded statistics.
  void reset();

  /// Flat JSON object: {"counters":{...},"values":{name:{count,sum,min,
  /// max,mean}},"quantiles":{name:{count,p50,p90,p99}},"timers_sec":{...}}
  /// with keys in sorted order.
  std::string toJson() const;

  /// Prometheus text exposition of the registry, metrics in sorted order
  /// within each kind. \p IncludeTimers false drops the wall-clock timer
  /// families, leaving only the deterministic part.
  std::string toPrometheus(bool IncludeTimers = true) const;

  /// `gdp_` + \p Name with every character outside [a-zA-Z0-9_:] mapped
  /// to '_' — a valid Prometheus metric name.
  static std::string prometheusName(const std::string &Name);

private:
  mutable std::mutex Mu;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, ValueStats> Values;
  std::map<std::string, LogHistogram> Quantiles;
  std::map<std::string, double> Timers;
};

} // namespace telemetry
} // namespace gdp

#endif // GDP_SUPPORT_STATSREGISTRY_H
