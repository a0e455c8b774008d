//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Options, the metric catalogue, outcome tallies, program sources and the
// small numeric helpers every workload shares. See perfbench/README.md for
// why the workloads and metrics are what they are.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "gen/Generator.h"
#include "ir/Program.h"
#include "partition/Pipeline.h"
#include "serve/Wire.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double msSince(Clock::time_point T0) { return secondsSince(T0) * 1e3; }

/// The seed used when --seed is not given. Claims are checked on it and
/// on at least one other seed nobody tuned against.
constexpr uint64_t kDefaultSeed = 1;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 9;

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = kDefaultSeed;
  double Seconds = 20;
  bool Trace = false;
  /// Traced run: file the recorded spans are written to at exit.
  std::string SpansOut;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// One entry of the metric catalogue: what the metric is and, for the
/// per-layer ones, which end-to-end metric it should move on which
/// workload (the prediction table of README.md).
struct MetricSpec {
  const char *Name;
  const char *Unit;
  bool EndToEnd;
  /// Per-layer metrics only: the end-to-end metric(s) it should move.
  const char *Moves;
  /// Per-layer metrics only: "does most work in / little in" workloads.
  const char *Where;
  /// Computed from other metrics instead of timed directly.
  bool Derived;
};

/// Every metric the benchmark reports, end-to-end first.
const std::vector<MetricSpec> &metricCatalogue();

/// One reported value.
struct Metric {
  std::string Name;
  double Value = 0;
  uint64_t Samples = 0;
};

/// Operation counts and check failures of one run.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Cells the degradation ladder demoted (reported, not failures).
  uint64_t Degraded = 0;
  std::vector<std::string> FailureNotes; ///< First few, for the log.

  /// Counts one attempted operation; \p Why non-empty marks it failed.
  void record(const std::string &Why);
};

/// Everything a run reports.
struct Report {
  Tally T;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< Extra human-readable lines.

  void add(const std::string &Name, double Value, uint64_t Samples) {
    Metrics.push_back({Name, Value, Samples});
  }
};

/// Prints the human-readable table (with the prediction columns for a
/// traced run) and then, as the last line, the JSON result object. The
/// metric set printed is exactly the end-to-end set (untraced) or the
/// per-layer set (traced); a missing metric is a benchmark bug and makes
/// the run fail.
int printReport(const Options &Opt, const Report &R);

// -- numeric helpers ------------------------------------------------------

/// Linear-interpolated percentile \p Q in [0, 1] of raw samples.
double percentile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) {
  return percentile(V, 0.5);
}
/// Geometric mean (1.0 for an empty vector).
double geomean(const std::vector<double> &V);
/// Peak resident set size of this process (VmHWM), in MB.
double peakRssMb();
/// splitmix64 mix of a seed and a stream index.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

// -- program sources ------------------------------------------------------

/// A program the benchmark compiles or requests: a named suite workload,
/// a gen:SEED:OPS spec, or the IR text of another program sent inline.
/// build() mirrors how gdpd's Service turns the same request into a
/// Program.
struct Source {
  enum Kind { Named, Gen, Inline };
  Kind K = Named;
  std::string Label;        ///< Workload name, gen spec, or a description.
  gdp::gen::GenOptions GO;  ///< Gen: the generator options.
  std::string IR;           ///< Inline: the program text.

  static Source named(const std::string &Name);
  /// A gen:SEED:OPS spec (default generator shape, as gdpd parses it).
  static Source genSpec(uint64_t Seed, unsigned Ops);
  /// The IR text of program \p Origin, sent inline.
  static Source inlineOf(const Source &Origin);

  std::unique_ptr<gdp::Program> build() const;
  /// The gdpd request for this program: a workload name, a gen spec, or
  /// inline IR.
  gdp::serve::PartitionRequest request(gdp::StrategyKind S,
                                       unsigned Lat) const;
};

/// The 16 suite programs of the paper's Figure 7/8 matrix.
std::vector<Source> suiteSources();

/// The four strategies, in matrix order.
const std::vector<gdp::StrategyKind> &allStrategies();
/// gdpd's lower-case strategy name.
const char *wireStrategy(gdp::StrategyKind S);

/// Cycles and moves of one evaluated cell: what every check compares.
struct CellOutcome {
  uint64_t Cycles = 0;
  uint64_t DynamicMoves = 0;
  uint64_t StaticMoves = 0;
  bool operator==(const CellOutcome &O) const {
    return Cycles == O.Cycles && DynamicMoves == O.DynamicMoves &&
           StaticMoves == O.StaticMoves;
  }
  bool operator!=(const CellOutcome &O) const { return !(*this == O); }
};
CellOutcome outcomeOf(const gdp::PipelineResult &R);

/// Runs the untraced compile workload (suite_matrix).
Report runCompileWorkload(const Options &Opt);
/// Runs the untraced serving workload (serve_mixed).
Report runServeWorkload(const Options &Opt);
/// Runs the traced per-layer pass of any workload.
Report runTracedWorkload(const Options &Opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
