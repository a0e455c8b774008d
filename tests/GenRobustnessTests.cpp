//===- tests/GenRobustnessTests.cpp - Fault/budget sweep on gen corpus --------===//
//
// The robustness contract (docs/ROBUSTNESS.md) replayed over generated
// programs: under every registered pipeline fault site — transient and
// sticky — a strategy evaluation must come back as a structured result
// (ok, Degraded with diagnostics, or Failed with diagnostics), never a
// crash, an assert, or a silently wrong success; and a node-budgeted
// exhaustive search must stop early with best-so-far results that still
// cover the strategy anchor placements. Failing seeds print the one-line
// `gdptool gen` repro (GDP_GEN_DUMP_DIR additionally dumps the IR).
//
//===----------------------------------------------------------------------===//

#include "gen/Generator.h"
#include "partition/Exhaustive.h"
#include "partition/Pipeline.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"
#include "tests/GenTestUtil.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace gdp;
using support::FaultPlan;
using support::FaultScope;

namespace {

FaultPlan mustParse(const std::string &Spec) {
  FaultPlan P;
  std::string Err;
  EXPECT_TRUE(FaultPlan::parse(Spec, P, &Err)) << Spec << ": " << Err;
  return P;
}

/// Every evaluation outcome a faulted run may legally produce: a usable
/// result, or a degraded/failed one that carries diagnostics. Anything
/// else (empty diags on failure) breaks the structured-diagnostics
/// contract.
void expectStructuredOutcome(const PipelineResult &R,
                             const std::string &Context) {
  if (R.Failed) {
    EXPECT_FALSE(R.Diags.empty())
        << Context << ": failed evaluation carries no diagnostics";
  } else if (R.Degraded) {
    EXPECT_FALSE(R.Diags.empty())
        << Context << ": degraded evaluation carries no diagnostics";
  }
  if (!R.Failed) {
    EXPECT_GT(R.Cycles, 0u) << Context;
  }
}

TEST(GenRobustness, FaultSweepNeverCrashesAndDiagsAreStructured) {
  // Transient and sticky flavors of every partition-stage site; sticky
  // rhop.lock exercises the full GDP -> ProfileMax -> Naive chain.
  const std::string Specs[] = {
      "graph.coarsen:1", "graph.coarsen:1+", "rhop.lock:1",
      "rhop.lock:1+",    "sched.estimate:1", "sched.estimate:1+",
      "pool.task:1",     "sim.bus:1",
  };
  unsigned N = gentest::seedCount(10);
  for (uint64_t Seed = 1; Seed <= N; ++Seed) {
    gen::GenOptions Opt = gen::GenOptions::smallDifferential(Seed);
    SCOPED_TRACE(gen::reproCommand(Opt));
    bool Before = ::testing::Test::HasFailure();

    std::unique_ptr<Program> P = gen::generateProgram(Opt);
    ASSERT_NE(P, nullptr);
    PreparedProgram PP = prepareProgram(*P);
    ASSERT_TRUE(PP.Ok) << PP.Error;

    for (const std::string &Spec : Specs) {
      for (StrategyKind K : {StrategyKind::GDP, StrategyKind::ProfileMax}) {
        FaultPlan Plan = mustParse(Spec);
        FaultScope Scope(&Plan, "gentest|" + Spec + "|" + strategyName(K));
        PipelineOptions PO;
        PO.Strategy = K;
        PipelineResult R = runStrategy(PP, PO);
        expectStructuredOutcome(R, Spec + " under " +
                                       std::string(strategyName(K)));
      }
    }
    // Clean control run: the same prepared program with no plan installed
    // must evaluate cleanly (the faults above must not leak state).
    PipelineOptions PO;
    PO.Strategy = StrategyKind::GDP;
    PipelineResult Clean = runStrategy(PP, PO);
    EXPECT_FALSE(Clean.Failed);
    EXPECT_FALSE(Clean.Degraded);

    if (!Before && ::testing::Test::HasFailure())
      gentest::dumpFailingSeed(Opt, P.get(), "fault sweep");
  }
}

TEST(GenRobustness, BudgetedExhaustiveStopsEarlyWithAnchors) {
  unsigned N = gentest::seedCount(8);
  for (uint64_t Seed = 1; Seed <= N; ++Seed) {
    gen::GenOptions Opt = gen::GenOptions::smallDifferential(Seed);
    SCOPED_TRACE(gen::reproCommand(Opt));
    bool Before = ::testing::Test::HasFailure();

    std::unique_ptr<Program> P = gen::generateProgram(Opt);
    ASSERT_NE(P, nullptr);
    PreparedProgram PP = prepareProgram(*P);
    ASSERT_TRUE(PP.Ok) << PP.Error;

    PipelineOptions PO;
    support::Budget B;
    B.NodeLimit = 2; // Far below 2^objects: the scan must cut off.
    ExhaustiveResult Ex = exhaustiveSearch(PP, PO, /*Threads=*/1, &B);
    ASSERT_TRUE(Ex.Ok);
    EXPECT_TRUE(Ex.BudgetExhausted);
    EXPECT_FALSE(Ex.Diags.empty())
        << "budget cutoff must be reported as a structured diagnostic";
    EXPECT_LT(Ex.EvaluatedPoints, Ex.Points.size());
    EXPECT_GT(Ex.BestCycles, 0u);
    // The strategy anchors are always evaluated, so the budgeted best is
    // never worse than what the heuristics themselves would pick.
    ASSERT_LT(Ex.GDPMask, Ex.Points.size());
    EXPECT_TRUE(Ex.Points[Ex.GDPMask].Evaluated);
    EXPECT_LE(Ex.BestCycles, Ex.Points[Ex.GDPMask].Cycles);

    // An unbudgeted run on the same program still completes fully.
    ExhaustiveResult Full = exhaustiveSearch(PP, PO, /*Threads=*/0);
    ASSERT_TRUE(Full.Ok);
    EXPECT_FALSE(Full.BudgetExhausted);
    EXPECT_EQ(Full.EvaluatedPoints, Full.Points.size());
    EXPECT_LE(Full.BestCycles, Ex.BestCycles)
        << "a budgeted best can never beat the full enumeration";

    if (!Before && ::testing::Test::HasFailure())
      gentest::dumpFailingSeed(Opt, P.get(), "budget sweep");
  }
}

} // namespace
