//===- bench/BenchCommon.h - Shared experiment harness ----------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the per-figure benchmark binaries: loads and
/// prepares the whole workload suite once, runs strategies, and prints
/// paper-style tables. Every binary in bench/ regenerates one table or
/// figure of the paper's evaluation (see DESIGN.md's experiment index).
///
/// Evaluations go through `runMatrix()`, which hands the independent
/// (benchmark, strategy, latency) cells to `evaluateCells()`
/// (sim/Evaluate.h): concurrently when more than one thread is configured
/// (`GDP_THREADS` env or `--threads=N`), each cell with its own telemetry
/// shard and fault scope. Results come back in input order and `--json`
/// records are appended in input order, so every figure and record file is
/// byte-identical at any thread count (the determinism contract in
/// docs/PARALLELISM.md); only wall-clock fields vary, and
/// `--deterministic` zeroes those too.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_BENCH_BENCHCOMMON_H
#define GDP_BENCH_BENCHCOMMON_H

#include "partition/Exhaustive.h"
#include "partition/Pipeline.h"
#include "sim/Evaluate.h"
#include "support/FaultInjector.h"
#include "support/Histogram.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <memory>
#include <string>
#include <vector>

namespace gdp {
namespace bench {

/// One prepared benchmark. The program and its preparation usually come
/// from the process-wide PreparedProgramCache, so `P` is shared ownership:
/// other suites (or gdptool commands in the same process) may alias it.
/// Treat both as immutable after loadSuite().
struct SuiteEntry {
  std::string Name;
  std::shared_ptr<Program> P;
  PreparedProgram PP;
};

/// One evaluation of the matrix: a strategy on a prepared benchmark at a
/// move latency.
struct EvalTask {
  const SuiteEntry *Entry = nullptr;
  StrategyKind Strategy = StrategyKind::GDP;
  unsigned MoveLatency = 5;
};

/// Parses and strips the harness-level flags out of argv, leaving the
/// binary's own flags for its parser; a binary with none calls
/// expectNoArgs() next. Call it first thing in main(). Recognizes:
///   --json=FILE      append one machine-readable record per evaluation
///                    done through run()/runMatrix()/runSimMatrix(), one
///                    per (benchmark, strategy, latency); the file is
///                    written atomically when the process exits.
///   --threads=N      evaluate the matrix on N threads (default: the
///                    GDP_THREADS environment variable, else 1 = serial).
///   --deterministic  zero the wall-clock fields of --json records so two
///                    runs compare byte-identical.
///   --affinity[=V]   pin pool workers to cores (default: the GDP_AFFINITY
///                    environment variable, else off). V is 1/on/true or
///                    0/off/false; anything else is a UsageError (exit 2).
///                    Placement only — records are identical either way.
void initBench(int &argc, char **argv);

/// For binaries with no flags of their own: calls usageError() when
/// initBench() left an argument in \p argv.
void expectNoArgs(int argc, char **argv);

/// Prints "error: bad argument 'ARG'" and "usage: USAGE" to stderr and
/// exits 1, as gdptool does for a bad flag. No --json file is written.
[[noreturn]] void usageError(const std::string &Arg, const std::string &Usage);

/// True when --json=FILE was given to initBench().
bool jsonEnabled();

/// The configured total thread count (>= 1).
unsigned threads();

/// Overrides the thread count (tests; initBench also sets this).
void setThreads(unsigned N);

/// True when worker pinning is on (--affinity or GDP_AFFINITY).
bool affinity();

/// True when --json records should zero their wall-clock fields.
bool deterministicRecords();

/// Overrides the fault plan the per-cell scopes install (tests; null
/// restores the default, the process-wide GDP_FAULTS plan). The plan must
/// outlive every matrix run made while it is installed.
void setFaultPlanForTesting(const support::FaultPlan *Plan);

/// Formats one --json record. The *_sec fields are \p PrepareSeconds and
/// the phase timers of \p Shard, the evaluation's telemetry, which also
/// contributes its counters. When \p Deterministic, the *_sec wall-clock
/// fields are written as 0 so records compare byte-identical across runs
/// and thread counts (every other field is deterministic already). Degraded or
/// failed evaluations additionally carry status/requested_strategy/
/// effective_strategy/fallbacks/diags fields (docs/OBSERVABILITY.md);
/// clean records are byte-identical to the historic schema.
std::string formatRecord(const std::string &Benchmark,
                         const std::string &Strategy, unsigned MoveLatency,
                         const PipelineResult &R, double PrepareSeconds,
                         const telemetry::TelemetrySession &Shard,
                         bool Deterministic);

/// Formats the --json record of one exhaustive search (fig9): best/worst
/// cycles and masks plus the partitioners' picks. Fully deterministic.
std::string formatExhaustiveRecord(const std::string &Benchmark,
                                   unsigned MoveLatency,
                                   const ExhaustiveResult &R);

/// Appends the JSON record of one exhaustive search.
void recordExhaustive(const std::string &Benchmark, unsigned MoveLatency,
                      const ExhaustiveResult &R);

/// Builds, verifies, annotates and profiles every workload (concurrently
/// when threads() > 1; the returned order is always the registry order).
/// Exits with a diagnostic if any preparation fails (the test suite guards
/// this). With \p CaptureTraces every entry also records its profiling
/// run's dynamic trace, as the cycle simulator needs (sim/Simulator.h).
std::vector<SuiteEntry> loadSuite(bool CaptureTraces = false);

/// Convenience: runs \p Strategy on \p Entry at \p MoveLatency with
/// default options, as a one-cell runMatrix() on the calling thread.
PipelineResult run(const SuiteEntry &Entry, StrategyKind Strategy,
                   unsigned MoveLatency);

/// Evaluates every task, concurrently when threads() > 1, and returns the
/// results (with each cell's telemetry shard) in input order. --json
/// records are also appended in input order, so the record file is
/// identical at any thread count.
std::vector<CellResult> runMatrix(const std::vector<EvalTask> &Tasks);

/// Like runMatrix(), but returns the deterministic-mode JSON record bytes
/// of every task (exactly what --json --deterministic writes), whether or
/// not --json is active. DeterminismTests compares these byte-for-byte
/// across thread counts and repeated runs.
std::vector<std::string>
runMatrixRecords(const std::vector<EvalTask> &Tasks);

/// Formats the --json record of one simulated evaluation: the static
/// fields plus sim_* dynamic cycles, stall breakdown, event counts and
/// per-cluster utilization. Fully deterministic (no wall-clock fields).
std::string formatSimRecord(const std::string &Benchmark,
                            const std::string &Strategy,
                            unsigned MoveLatency, const PipelineResult &R,
                            const SimResult &S);

/// Evaluates and simulates every task (concurrently when threads() > 1),
/// returning results in input order; --json sim records append in input
/// order. Suite entries must come from loadSuite(/*CaptureTraces=*/true).
/// A failed cell (evaluation or simulation, including injected faults) is
/// reported on stderr and recorded as {"status": "failed", ...}; the rest
/// of the matrix continues.
std::vector<CellResult> runSimMatrix(const std::vector<EvalTask> &Tasks);

/// Like runSimMatrix(), but returns every task's deterministic JSON record
/// bytes. DeterminismTests compares these across thread counts and runs.
std::vector<std::string>
runSimMatrixRecords(const std::vector<EvalTask> &Tasks);

/// Relative performance of \p Cycles versus \p BaselineCycles, as the
/// paper plots it (baseline / measured; 1.0 = parity, higher = faster than
/// the baseline).
double relativePerf(uint64_t BaselineCycles, uint64_t Cycles);

/// Prints the standard experiment banner.
void banner(const std::string &Title, const std::string &PaperRef);

} // namespace bench
} // namespace gdp

#endif // GDP_BENCH_BENCHCOMMON_H
