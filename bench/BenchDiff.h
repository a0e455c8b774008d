//===- bench/BenchDiff.h - Benchmark record comparison ----------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compares two benchmark JSON files and flags per-metric regressions —
/// the core of the `bench_diff` tool and the CI bench-regression gate
/// (docs/OBSERVABILITY.md). These schemas are understood:
///
///  * `gdp-bench-v1` (the harness's --json records): records are keyed by
///    benchmark|strategy|move_latency(|sim) and a fixed allowlist of
///    deterministic metrics is compared (cycles, moves, rhop runs, the
///    simulator stall taxonomy).
///  * `gdp-compile-speed-v1`: workloads are keyed by name and the
///    wall-clock `workload_wall_sec` is compared (callers pass a generous
///    tolerance — wall clocks are machine-dependent).
///  * `gdp-gen-scale-v1` (bench/gen_scale): one record per
///    ops|threads|strategy, comparing cycles, dyn_moves, static_moves and
///    rhop_runs; the *_sec wall-clock fields are not compared.
///  * `gdp-serve-v1` and `gdp-serve-chaos-v1` (bench/serve_load): one
///    record per cluster shape, comparing request and failure counts.
///
/// All compared metrics are lower-is-better. A metric regresses when
///   current > baseline * (1 + tolerance)  (or baseline is 0 and current
/// is not). Records present in the baseline but missing from the current
/// file count as regressions unless allowed; new records are reported but
/// never fail the diff. A record whose status is "failed" while its
/// baseline was clean is a regression regardless of metrics.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_BENCH_BENCHDIFF_H
#define GDP_BENCH_BENCHDIFF_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gdp {
namespace bench {

struct DiffOptions {
  /// Relative headroom applied to every metric without an override:
  /// 0.0 = exact, 0.05 = +5% allowed.
  double DefaultTolerance = 0.0;

  /// Per-metric tolerance overrides (metric name -> relative headroom).
  std::map<std::string, double> MetricTolerance;

  /// When true, records missing from the current file are reported but do
  /// not fail the diff.
  bool AllowMissing = false;
};

/// One compared metric of one record.
struct MetricDelta {
  std::string Key;    ///< Record key (benchmark|strategy|lat...).
  std::string Metric; ///< Metric name, or "" for record-level findings.
  double Baseline = 0;
  double Current = 0;
  double Tolerance = 0;
  bool Regressed = false;
  bool Improved = false;
};

struct DiffResult {
  bool Ok = false;          ///< Inputs parsed and were comparable.
  std::string Error;        ///< Parse/schema failure when !Ok.
  std::vector<MetricDelta> Deltas;     ///< Every compared metric.
  std::vector<std::string> MissingInCurrent;
  std::vector<std::string> NewInCurrent;
  unsigned Regressions = 0; ///< Count of regressed deltas (+ missing when
                            ///< not allowed, + newly-failed records).

  bool regressed() const { return Regressions != 0; }
};

/// Diffs two benchmark JSON documents (full file contents).
DiffResult diffBenchJson(const std::string &BaselineText,
                         const std::string &CurrentText,
                         const DiffOptions &Opt);

/// Human-readable report; \p Verbose includes unchanged metrics.
std::string renderDiffReport(const DiffResult &R, bool Verbose);

} // namespace bench
} // namespace gdp

#endif // GDP_BENCH_BENCHDIFF_H
