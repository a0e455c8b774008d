//===- sim/Evaluate.h - Strategy evaluation matrix driver -------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way to evaluate a list of strategy evaluations ("cells"): the
/// bench harness, gdptool's run/sim/report, gen_scale, compile_speed and
/// the quickstart example all hand their cells to evaluateCells(). Every
/// cell runs as one support::ThreadPool task with
///
///  * its own telemetry shard, which adopts the submitter's span context
///    and is tagged with the cell's index, so a caller that merges the
///    shards in input order gets the same counters and span tree at any
///    thread count. The shard's `pipeline.*` timers are the cell's phase
///    times (docs/OBSERVABILITY.md);
///  * its own fault-counting scope under the caller's name, so an
///    injected fault fires in the same cells at any thread count
///    (support/FaultInjector.h);
///  * the `pool.task` fault site and task isolation: any exception becomes
///    a Failed result with a task_failed diagnostic at site `eval.task`,
///    and the other cells carry on;
///  * optionally, a trace simulation of its result (sim/Simulator.h).
///
/// Results come back in input order (the determinism contract in
/// docs/PARALLELISM.md).
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SIM_EVALUATE_H
#define GDP_SIM_EVALUATE_H

#include "partition/Pipeline.h"
#include "sim/Simulator.h"
#include "support/Telemetry.h"

#include <memory>
#include <string>
#include <vector>

namespace gdp {

namespace support {
class FaultPlan;
} // namespace support

/// One evaluation: a strategy (in \c Opt) on a prepared program.
struct EvalCell {
  const PreparedProgram *PP = nullptr;
  PipelineOptions Opt;
  /// Name of the cell's fault scope; a `@filter` rule matches against it.
  std::string Scope;
};

/// What one cell produced.
struct CellResult {
  PipelineResult R;
  /// R's trace simulation when one was asked for. When R failed, it is not
  /// Ok and says why the simulation was skipped.
  SimResult S;
  /// Everything the cell recorded, and nothing else. Never null.
  std::unique_ptr<telemetry::TelemetrySession> Shard;
};

/// Evaluates \p Cells on \p Threads threads (at most one per cell; 1 runs
/// them in order on the calling thread) and returns their results in
/// input order. Fault scopes count against \p Faults (null: nothing
/// fires). With \p Simulate, every cell's program must have been prepared
/// with trace capture.
std::vector<CellResult> evaluateCells(const std::vector<EvalCell> &Cells,
                                      unsigned Threads,
                                      const support::FaultPlan *Faults,
                                      bool Simulate = false);

} // namespace gdp

#endif // GDP_SIM_EVALUATE_H
