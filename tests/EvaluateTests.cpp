//===- tests/EvaluateTests.cpp - Evaluation matrix driver tests -------------===//
//
// Covers sim/Evaluate.h: every cell's telemetry shard carries the cell's
// own phase timers (the pipeline.* spans are the only phase clock), a
// pool.task fault scoped to one cell fails that cell alone and leaves the
// others' results and counters as a fault-free run has them at 1, 2 and 8
// threads, and a cell whose evaluation failed carries the reason its
// simulation was skipped.
//
//===----------------------------------------------------------------------===//

#include "partition/UnlockedRHOP.h"
#include "sim/Evaluate.h"
#include "support/FaultInjector.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gdp;

namespace {

const StrategyKind AllStrategies[] = {StrategyKind::Unified, StrategyKind::GDP,
                                      StrategyKind::ProfileMax,
                                      StrategyKind::Naive};

/// fir, prepared once (with its trace, so it can be simulated).
const PreparedProgram &fir() {
  static std::unique_ptr<Program> P = buildWorkload("fir");
  static PreparedProgram PP =
      prepareProgram(*P, 200000000ULL, /*CaptureTrace=*/true);
  return PP;
}

/// A copy of \p PP with an empty unlocked-RHOP table: nothing evaluated on
/// it reuses a run made elsewhere.
PreparedProgram unshared(const PreparedProgram &PP) {
  PreparedProgram Copy = PP;
  Copy.Unlocked = std::make_shared<UnlockedRHOPTable>();
  return Copy;
}

/// One cell per strategy on \p PP, named "fir|<strategy>".
std::vector<EvalCell> strategyCells(const PreparedProgram &PP) {
  std::vector<EvalCell> Cells;
  for (StrategyKind K : AllStrategies) {
    EvalCell C;
    C.PP = &PP;
    C.Opt.Strategy = K;
    C.Scope = std::string("fir|") + strategyName(K);
    Cells.push_back(C);
  }
  return Cells;
}

/// Everything deterministic about one cell: its result and its counters.
std::string observe(const CellResult &E) {
  const PipelineResult &R = E.R;
  std::string Out = formatStr(
      "failed=%d cycles=%llu dyn=%llu static=%llu rhop=%u diags=%zu homes=",
      R.Failed ? 1 : 0, static_cast<unsigned long long>(R.Cycles),
      static_cast<unsigned long long>(R.DynamicMoves),
      static_cast<unsigned long long>(R.StaticMoves), R.RHOPRuns,
      R.Diags.size());
  for (unsigned O = 0; O != R.Placement.getNumObjects(); ++O)
    Out += std::to_string(R.Placement.getHome(O)) + ",";
  for (const auto &[Name, V] : E.Shard->stats().counterSnapshot())
    Out += formatStr(" %s=%llu", Name.c_str(),
                     static_cast<unsigned long long>(V));
  return Out;
}

TEST(Evaluate, EveryShardTimesItsOwnPhases) {
  ASSERT_TRUE(fir().Ok) << fir().Error;
  // Each cell on its own table, so each pays for its own RHOP run.
  std::vector<PreparedProgram> Preps;
  for (size_t I = 0; I != std::size(AllStrategies); ++I)
    Preps.push_back(unshared(fir()));
  std::vector<EvalCell> Cells;
  for (size_t I = 0; I != Preps.size(); ++I)
    Cells.push_back(strategyCells(Preps[I])[I]);
  std::vector<CellResult> Evals = evaluateCells(Cells, 1, nullptr);
  ASSERT_EQ(Evals.size(), Cells.size());
  for (size_t I = 0; I != Evals.size(); ++I) {
    StrategyKind K = AllStrategies[I];
    ASSERT_TRUE(Evals[I].Shard) << strategyName(K);
    EXPECT_TRUE(Evals[I].R.ok()) << strategyName(K);
    const telemetry::StatsRegistry &Stats = Evals[I].Shard->stats();
    EXPECT_GT(Stats.getTime("pipeline.strategy"), 0.0) << strategyName(K);
    EXPECT_GT(Stats.getTime("pipeline.rhop"), 0.0) << strategyName(K);
    EXPECT_GT(Stats.getTime("pipeline.schedule"), 0.0) << strategyName(K);
    if (K == StrategyKind::Unified) {
      EXPECT_EQ(Stats.getTime("pipeline.data_partition"), 0.0);
    } else {
      EXPECT_GT(Stats.getTime("pipeline.data_partition"), 0.0)
          << strategyName(K);
    }
    EXPECT_EQ(partitionSeconds(Stats),
              Stats.getTime("pipeline.data_partition") +
                  Stats.getTime("pipeline.rhop"));
    // A shard holds its own evaluation only.
    EXPECT_EQ(Stats.getCounter("pipeline.strategy_runs"), 1u);
  }
}

TEST(Evaluate, PoolTaskFaultFailsOnlyItsCell) {
  ASSERT_TRUE(fir().Ok) << fir().Error;
  PreparedProgram Clean = unshared(fir());
  std::vector<CellResult> Baseline =
      evaluateCells(strategyCells(Clean), 1, nullptr);

  support::FaultPlan Plan;
  std::string Err;
  ASSERT_TRUE(support::FaultPlan::parse("pool.task:1@fir|ProfileMax", Plan,
                                        &Err))
      << Err;
  for (unsigned Threads : {1u, 2u, 8u}) {
    PreparedProgram PP = unshared(fir());
    std::vector<CellResult> Evals =
        evaluateCells(strategyCells(PP), Threads, &Plan);
    ASSERT_EQ(Evals.size(), Baseline.size());
    for (size_t I = 0; I != Evals.size(); ++I) {
      const PipelineResult &R = Evals[I].R;
      if (AllStrategies[I] != StrategyKind::ProfileMax) {
        EXPECT_EQ(observe(Evals[I]), observe(Baseline[I]))
            << strategyName(AllStrategies[I]) << " at " << Threads
            << " threads";
        continue;
      }
      EXPECT_TRUE(R.Failed) << Threads << " threads";
      EXPECT_EQ(R.RequestedStrategy, StrategyKind::ProfileMax);
      ASSERT_EQ(R.Diags.size(), 1u) << Threads << " threads";
      EXPECT_EQ(R.Diags[0].Code, support::StatusCode::TaskFailed);
      EXPECT_EQ(R.Diags[0].Site, "eval.task");
      EXPECT_FALSE(Evals[I].S.Ok);
    }
  }
}

TEST(Evaluate, FailedCellCarriesSkippedSimulation) {
  ASSERT_TRUE(fir().Ok) << fir().Error;
  support::FaultPlan Plan;
  std::string Err;
  ASSERT_TRUE(
      support::FaultPlan::parse("sched.estimate:1@fir|GDP", Plan, &Err))
      << Err;
  PreparedProgram PP = unshared(fir());
  std::vector<CellResult> Evals =
      evaluateCells(strategyCells(PP), 2, &Plan, /*Simulate=*/true);
  for (size_t I = 0; I != Evals.size(); ++I) {
    const CellResult &E = Evals[I];
    if (AllStrategies[I] != StrategyKind::GDP) {
      ASSERT_TRUE(E.S.Ok) << strategyName(AllStrategies[I]) << ": "
                          << E.S.Error;
      EXPECT_GE(E.S.Cycles, E.R.Cycles);
      continue;
    }
    EXPECT_TRUE(E.R.Failed);
    EXPECT_FALSE(E.S.Ok);
    ASSERT_EQ(E.S.Diags.size(), 1u);
    EXPECT_EQ(E.S.Diags[0].Site, "sim");
    EXPECT_EQ(E.S.Diags[0].Code, support::StatusCode::TaskFailed);
    EXPECT_NE(E.S.Diags[0].Message.find("simulation skipped"),
              std::string::npos)
        << E.S.Diags[0].Message;
  }
}

} // namespace
