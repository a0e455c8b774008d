//===- sim/Evaluate.cpp - Strategy evaluation matrix driver -----------------===//

#include "sim/Evaluate.h"

#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <exception>
#include <numeric>

using namespace gdp;

namespace {

CellResult evaluateCell(const EvalCell &C, int32_t Index,
                        const support::FaultPlan *Faults, bool Simulate) {
  CellResult E;
  E.Shard = std::make_unique<telemetry::TelemetrySession>();
  E.Shard->adoptTaskContext(telemetry::inheritedContext(), Index);
  telemetry::ScopedSession Session(*E.Shard);
  support::FaultScope Scope(Faults, C.Scope);
  try {
    if (support::faultAt("pool.task"))
      throw support::FaultInjectedError("pool.task");
    E.R = runStrategy(*C.PP, C.Opt);
    if (Simulate && E.R.ok()) {
      E.S = simulateStrategy(*C.PP, E.R, C.Opt);
    } else if (Simulate) {
      E.S.Error = "static evaluation failed; simulation skipped";
      E.S.Diags.push_back(support::errorDiag(support::StatusCode::TaskFailed,
                                             "sim", E.S.Error));
    }
  } catch (const std::exception &Ex) {
    E.R = PipelineResult();
    E.R.RequestedStrategy = C.Opt.Strategy;
    E.R.EffectiveStrategy = C.Opt.Strategy;
    E.R.Failed = true;
    E.R.Diags.push_back(support::errorDiag(support::StatusCode::TaskFailed,
                                           "eval.task", Ex.what()));
    E.S.Error = Ex.what();
  }
  return E;
}

} // namespace

std::vector<CellResult> gdp::evaluateCells(const std::vector<EvalCell> &Cells,
                                           unsigned Threads,
                                           const support::FaultPlan *Faults,
                                           bool Simulate) {
  if (Cells.empty())
    return {};
  size_t Concurrency = std::min<size_t>(std::max(1u, Threads), Cells.size());
  support::ThreadPool Pool(static_cast<unsigned>(Concurrency - 1));
  std::vector<size_t> Indices(Cells.size());
  std::iota(Indices.begin(), Indices.end(), 0);
  return Pool.parallelMap(Indices, [&](size_t I) {
    return evaluateCell(Cells[I], static_cast<int32_t>(I), Faults, Simulate);
  });
}
