//===- tests/RobustnessTests.cpp - Hardened-pipeline guarantees --------------===//
//
// The robustness contract of docs/ROBUSTNESS.md, enforced end to end:
// structured diagnostics render and serialize deterministically; the
// fault-injection plan grammar parses (and rejects) what it should and
// fires per-scope, independent of thread scheduling; the graceful-
// degradation chain demotes GDP → ProfileMax → Naive exactly as specified
// (with the relaxed-tolerance retry recovering recoverable cuts); resource
// budgets stop the exhaustive search with best-so-far results that are
// never worse than the strategy anchors; and the bench harness isolates a
// poisoned cell — one failed record, byte-identical at 1, 2 and 8 threads,
// while every other cell stays byte-identical to a clean run.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "partition/Exhaustive.h"
#include "partition/GlobalDataPartitioner.h"
#include "partition/PartitionTables.h"
#include "partition/Pipeline.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"
#include "support/Json.h"
#include "support/Status.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

using namespace gdp;
using support::Diag;
using support::FaultPlan;
using support::FaultScope;
using support::Severity;
using support::StatusCode;

namespace {

//===----------------------------------------------------------------------===//
// Fixtures
//===----------------------------------------------------------------------===//

/// Parses a fault spec that the test requires to be valid.
FaultPlan mustParse(const std::string &Spec) {
  FaultPlan P;
  std::string Err;
  EXPECT_TRUE(FaultPlan::parse(Spec, P, &Err)) << Spec << ": " << Err;
  return P;
}

/// One small workload, prepared once (with trace capture so the sim tests
/// can share it).
const bench::SuiteEntry &fir() {
  static bench::SuiteEntry E = [] {
    bench::SuiteEntry S;
    S.Name = "fir";
    S.P = buildWorkload("fir");
    S.PP = prepareProgram(*S.P, 200000000ULL, /*CaptureTrace=*/true);
    EXPECT_TRUE(S.PP.Ok) << S.PP.Error;
    return S;
  }();
  return E;
}

const bench::SuiteEntry &viterbi() {
  static bench::SuiteEntry E = [] {
    bench::SuiteEntry S;
    S.Name = "viterbi";
    S.P = buildWorkload("viterbi");
    S.PP = prepareProgram(*S.P, 200000000ULL, /*CaptureTrace=*/true);
    EXPECT_TRUE(S.PP.Ok) << S.PP.Error;
    return S;
  }();
  return E;
}

/// Runs one strategy on fir under an installed fault plan.
PipelineResult runWithFaults(StrategyKind K, const std::string &Spec) {
  FaultPlan Plan = mustParse(Spec);
  FaultScope Scope(&Plan, "test|" + std::string(strategyName(K)));
  PipelineOptions Opt;
  Opt.Strategy = K;
  return runStrategy(fir().PP, Opt);
}

/// Installs a bench-harness fault-plan override for one test body.
struct ScopedBenchFaultPlan {
  explicit ScopedBenchFaultPlan(const FaultPlan *P) {
    bench::setFaultPlanForTesting(P);
  }
  ~ScopedBenchFaultPlan() {
    bench::setFaultPlanForTesting(nullptr);
    bench::setThreads(1);
  }
};

/// A two-object program whose larger object (1000 bytes) cannot fit a
/// 600-byte cluster even though the total (1008) fits two of them — the
/// one shape whose placement is genuinely infeasible under capacity.
std::unique_ptr<Program> parseCapacityHog() {
  ParseResult R = parseProgram(
      "program caphog\n"
      "  obj0 big: global, 250 elems x 4 bytes (1000 bytes)\n"
      "  obj1 small: global, 2 elems x 4 bytes (8 bytes)\n"
      "func f0 main()\n"
      "bb0 (entry):\n"
      "  r0 = addrof obj0\n"
      "  r1 = ld [r0+0]\n"
      "  r2 = addrof obj1\n"
      "  r3 = ld [r2+0]\n"
      "  r4 = add r1, r3\n"
      "  ret r4\n");
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.P);
}

//===----------------------------------------------------------------------===//
// Structured diagnostics
//===----------------------------------------------------------------------===//

TEST(StatusDiag, RenderIsDeterministicAndOrdered) {
  Diag D = support::errorDiag(StatusCode::Infeasible, "gdp.place",
                              "placement exceeds cluster memory capacity");
  D.with("capacity_bytes", static_cast<uint64_t>(600))
      .with("clusters", static_cast<uint64_t>(2));
  EXPECT_EQ(D.render(),
            "error: gdp.place: placement exceeds cluster memory capacity "
            "[capacity_bytes=600, clusters=2]");
  EXPECT_EQ(D.toJson(),
            "{\"code\": \"infeasible\", \"severity\": \"error\", "
            "\"site\": \"gdp.place\", \"message\": \"placement exceeds "
            "cluster memory capacity\", \"context\": "
            "{\"capacity_bytes\": \"600\", \"clusters\": \"2\"}}");
  // Equal diagnostics render equal — the byte-stability precondition for
  // embedding them in --json records.
  EXPECT_EQ(D.render(), D.render());
  EXPECT_EQ(D.toJson(), D.toJson());
}

TEST(StatusDiag, HelpersAndSeverities) {
  std::vector<Diag> Diags;
  EXPECT_EQ(support::diagsToJson(Diags), "[]");
  EXPECT_EQ(support::firstError(Diags), nullptr);
  Diags.push_back(support::warnDiag(StatusCode::Infeasible,
                                    "pipeline.fallback", "demoted"));
  EXPECT_EQ(support::firstError(Diags), nullptr)
      << "warnings are not errors";
  Diags.push_back(
      support::errorDiag(StatusCode::FaultInjected, "rhop.lock", "boom"));
  ASSERT_NE(support::firstError(Diags), nullptr);
  EXPECT_EQ(support::firstError(Diags)->Code, StatusCode::FaultInjected);
  EXPECT_EQ(support::renderDiags(Diags),
            "warning: pipeline.fallback: demoted\n"
            "error: rhop.lock: boom");
  EXPECT_EQ(std::string(support::statusCodeName(StatusCode::BudgetExhausted)),
            "budget_exhausted");
  EXPECT_EQ(std::string(support::severityName(Severity::Warning)),
            "warning");
}

TEST(StatusDiag, JsonEscapesEveryControlCharacter) {
  // Messages and context values carry user input (specs, file names), so
  // every byte below 0x20 must be escaped and read back unchanged.
  const std::string Nasty = "q\" b\\ n\n t\t r\r c\x01 end";
  Diag D = support::errorDiag(StatusCode::InputError, "serve.load", Nasty);
  D.with("spec", Nasty);
  for (const std::string &Json : {D.toJson(), support::diagsToJson({D})}) {
    EXPECT_TRUE(std::none_of(Json.begin(), Json.end(),
                             [](unsigned char C) { return C < 0x20; }))
        << Json;
    support::json::JVal Doc;
    std::string Err;
    ASSERT_TRUE(support::json::parse(Json, Doc, Err)) << Err << "\n" << Json;
    const support::json::JVal &Obj =
        Doc.K == support::json::JVal::Array ? Doc.Arr.at(0) : Doc;
    EXPECT_EQ(Obj["message"].Str, Nasty);
    EXPECT_EQ(Obj["context"]["spec"].Str, Nasty);
  }
}

//===----------------------------------------------------------------------===//
// Fault plan grammar and scope semantics
//===----------------------------------------------------------------------===//

TEST(FaultPlanParse, AcceptsRulesStickyAndFilters) {
  FaultPlan P = mustParse("rhop.lock:2+@fir,sim.bus:1");
  ASSERT_EQ(P.Rules.size(), 2u);
  EXPECT_EQ(P.Rules[0].Site, "rhop.lock");
  EXPECT_EQ(P.Rules[0].Ordinal, 2u);
  EXPECT_TRUE(P.Rules[0].Sticky);
  EXPECT_EQ(P.Rules[0].ScopeFilter, "fir");
  EXPECT_EQ(P.Rules[1].Site, "sim.bus");
  EXPECT_EQ(P.Rules[1].Ordinal, 1u);
  EXPECT_FALSE(P.Rules[1].Sticky);
  EXPECT_TRUE(P.Rules[1].ScopeFilter.empty());
}

TEST(FaultPlanParse, RejectsMalformedAndUnknownSites) {
  FaultPlan P;
  std::string Err;
  EXPECT_FALSE(FaultPlan::parse("rhop.lock", P, &Err)) << "missing ordinal";
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(FaultPlan::parse("rhop.lock:x", P, &Err));
  EXPECT_FALSE(FaultPlan::parse("no.such.site:1", P, &Err))
      << "a typo must not silently disable a fault run";
  EXPECT_NE(Err.find("no.such.site"), std::string::npos);
}

TEST(FaultPlanParse, SiteRegistryCoversThePipeline) {
  const std::vector<std::string> &Sites = support::faultSites();
  for (const char *S : {"graph.coarsen", "rhop.lock", "sched.estimate",
                        "sim.bus", "pool.task"})
    EXPECT_NE(std::find(Sites.begin(), Sites.end(), S), Sites.end()) << S;
}

TEST(FaultScopeSemantics, NoScopeNeverFires) {
  EXPECT_FALSE(support::faultAt("rhop.lock"));
  EXPECT_FALSE(support::faultAt("sim.bus"));
}

TEST(FaultScopeSemantics, OrdinalCountsPerScope) {
  FaultPlan Plan = mustParse("rhop.lock:2");
  {
    FaultScope Scope(&Plan, "unit");
    EXPECT_FALSE(support::faultAt("rhop.lock")); // Hit 1.
    EXPECT_TRUE(support::faultAt("rhop.lock"));  // Hit 2 fires.
    EXPECT_FALSE(support::faultAt("rhop.lock")); // Hit 3: not sticky.
  }
  {
    FaultScope Scope(&Plan, "unit2"); // Fresh scope, fresh counters.
    EXPECT_FALSE(support::faultAt("rhop.lock"));
    EXPECT_TRUE(support::faultAt("rhop.lock"));
  }
}

TEST(FaultScopeSemantics, StickyFiresFromOrdinalOn) {
  FaultPlan Plan = mustParse("sim.bus:2+");
  FaultScope Scope(&Plan, "unit");
  EXPECT_FALSE(support::faultAt("sim.bus"));
  EXPECT_TRUE(support::faultAt("sim.bus"));
  EXPECT_TRUE(support::faultAt("sim.bus"));
}

TEST(FaultScopeSemantics, FilterRestrictsByScopeName) {
  FaultPlan Plan = mustParse("pool.task:1@fir|GDP");
  {
    FaultScope Scope(&Plan, "fir|GDP|lat5");
    EXPECT_TRUE(support::faultAt("pool.task"));
  }
  {
    FaultScope Scope(&Plan, "viterbi|GDP|lat5");
    EXPECT_FALSE(support::faultAt("pool.task"));
  }
}

TEST(FaultScopeSemantics, NullPlanScopeIsInert) {
  FaultScope Scope(nullptr, "unit");
  EXPECT_FALSE(support::faultAt("rhop.lock"));
}

//===----------------------------------------------------------------------===//
// Graceful degradation chain
//===----------------------------------------------------------------------===//

TEST(Degradation, CleanRunCarriesNoRobustnessMarks) {
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  PipelineResult R = runStrategy(fir().PP, Opt);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(R.Degraded);
  EXPECT_EQ(R.Fallbacks, 0u);
  EXPECT_EQ(R.RequestedStrategy, StrategyKind::GDP);
  EXPECT_EQ(R.EffectiveStrategy, StrategyKind::GDP);
  EXPECT_TRUE(R.Diags.empty());
}

TEST(Degradation, RhopLockFaultDemotesGDPToProfileMax) {
  PipelineResult R = runWithFaults(StrategyKind::GDP, "rhop.lock:1");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.Fallbacks, 1u);
  EXPECT_EQ(R.RequestedStrategy, StrategyKind::GDP);
  EXPECT_EQ(R.EffectiveStrategy, StrategyKind::ProfileMax);
  ASSERT_NE(support::firstError(R.Diags), nullptr);
  EXPECT_EQ(support::firstError(R.Diags)->Code, StatusCode::FaultInjected);

  // The demoted run is the real ProfileMax evaluation: identical cycles,
  // moves and placement to asking for ProfileMax directly.
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::ProfileMax;
  PipelineResult Direct = runStrategy(fir().PP, Opt);
  EXPECT_EQ(R.Cycles, Direct.Cycles);
  EXPECT_EQ(R.DynamicMoves, Direct.DynamicMoves);
  for (unsigned I = 0; I != R.Placement.getNumObjects(); ++I)
    EXPECT_EQ(R.Placement.getHome(I), Direct.Placement.getHome(I)) << I;
}

TEST(Degradation, StickyRhopLockFaultFallsThroughToNaive) {
  PipelineResult R = runWithFaults(StrategyKind::GDP, "rhop.lock:1+");
  EXPECT_TRUE(R.ok()) << "Naive has no lock step; the chain terminates";
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.Fallbacks, 2u);
  EXPECT_EQ(R.EffectiveStrategy, StrategyKind::Naive);
}

TEST(Degradation, CoarsenFaultRecoversViaRelaxedRetry) {
  PipelineResult R = runWithFaults(StrategyKind::GDP, "graph.coarsen:1");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Degraded) << "the retry is a recovery action";
  EXPECT_EQ(R.Fallbacks, 0u) << "recovered without demoting";
  EXPECT_EQ(R.EffectiveStrategy, StrategyKind::GDP);
  bool SawRetry = false;
  for (const Diag &D : R.Diags)
    SawRetry |= D.Site == "pipeline.retry";
  EXPECT_TRUE(SawRetry);
}

TEST(Degradation, SchedEstimateFaultFailsTheEvaluation) {
  PipelineResult R = runWithFaults(StrategyKind::GDP, "sched.estimate:1");
  EXPECT_TRUE(R.Failed);
  EXPECT_FALSE(R.ok());
  ASSERT_NE(support::firstError(R.Diags), nullptr);
  EXPECT_EQ(support::firstError(R.Diags)->Code, StatusCode::FaultInjected);
}

TEST(Degradation, UnpreparedProgramFailsTotally) {
  PreparedProgram PP; // Ok = false, no program.
  PipelineOptions Opt;
  PipelineResult R = runStrategy(PP, Opt);
  EXPECT_TRUE(R.Failed);
  EXPECT_FALSE(R.Diags.empty());
}

TEST(Degradation, ClusterCountOutsideItsRangeIsAnInputError) {
  // 0 and anything above MaxClusters fail before any partitioning work,
  // on the options and on a custom machine alike.
  ASSERT_EQ(MaxClusters, 64u);
  MachineModel NoClusters; // A custom machine with no cluster added.
  MachineModel TooMany = MachineModel::makeDefault(MaxClusters + 1);
  for (unsigned Clusters : {0u, MaxClusters + 1}) {
    PipelineOptions Opt;
    Opt.NumClusters = Clusters;
    PipelineOptions OnMachine;
    OnMachine.Machine = Clusters ? &TooMany : &NoClusters;
    for (const PipelineOptions *O : {&Opt, &OnMachine}) {
      PipelineResult R = runStrategy(fir().PP, *O);
      EXPECT_TRUE(R.Failed) << Clusters << " clusters";
      EXPECT_EQ(R.RHOPRuns, 0u);
      const Diag *D = support::firstError(R.Diags);
      ASSERT_NE(D, nullptr) << Clusters << " clusters";
      EXPECT_EQ(D->Code, StatusCode::InputError);
      EXPECT_EQ(D->Site, "pipeline");
    }
  }
}

TEST(Degradation, CapacityInfeasibilityDemotesWithoutFaults) {
  // Genuine (non-injected) infeasibility: the 1000-byte object cannot fit
  // a 600-byte cluster, so GDP (including its relaxed retry) fails and the
  // chain demotes to ProfileMax, which places by access frequency and
  // does not enforce capacity.
  auto P = parseCapacityHog();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok) << PP.Error;
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  Opt.DataOpt.MemCapacityBytes = 600;
  PipelineResult R = runStrategy(PP, Opt);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.Fallbacks, 1u);
  EXPECT_EQ(R.EffectiveStrategy, StrategyKind::ProfileMax);
  ASSERT_NE(support::firstError(R.Diags), nullptr);
  EXPECT_EQ(support::firstError(R.Diags)->Code, StatusCode::Infeasible);
}

TEST(Degradation, InfeasibleDataPartitionIsSharedLikeAnyOther) {
  // The infeasible first cut and the relaxed retry are cached under their
  // own keys: a second evaluation on the same preparation (at another
  // latency) reads both slots and demotes exactly as the first did.
  auto P = parseCapacityHog();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok) << PP.Error;
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  Opt.DataOpt.MemCapacityBytes = 600;
  PipelineResult First = runStrategy(PP, Opt);
  EXPECT_EQ(PP.Tables->DataPartitions.size(), 2u);
  Opt.MoveLatency = 10;
  PipelineResult Second = runStrategy(PP, Opt);
  EXPECT_EQ(PP.Tables->DataPartitions.size(), 2u);

  auto Fresh = parseCapacityHog();
  PreparedProgram FreshPP = prepareProgram(*Fresh);
  ASSERT_TRUE(FreshPP.Ok) << FreshPP.Error;
  PipelineResult Want = runStrategy(FreshPP, Opt);
  EXPECT_EQ(First.Fallbacks, 1u);
  EXPECT_EQ(Second.EffectiveStrategy, StrategyKind::ProfileMax);
  EXPECT_EQ(support::renderDiags(Second.Diags),
            support::renderDiags(First.Diags));
  EXPECT_EQ(support::renderDiags(Second.Diags),
            support::renderDiags(Want.Diags));
  EXPECT_EQ(Second.Cycles, Want.Cycles);
  for (unsigned I = 0; I != Want.Placement.getNumObjects(); ++I)
    EXPECT_EQ(Second.Placement.getHome(I), Want.Placement.getHome(I)) << I;
}

TEST(Degradation, CapacityIsAdvisoryWhenNothingCouldFit) {
  // When even the total footprint exceeds NumClusters × capacity no
  // assignment can satisfy the constraint, so the result stands with a
  // warning instead of failing the whole chain.
  auto P = parseCapacityHog();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok) << PP.Error;
  GDPOptions Opt;
  Opt.MemCapacityBytes = 100; // 2 × 100 < 1008 total bytes.
  GDPResult D = runGlobalDataPartitioning(*P, PP.Prof, 2, Opt);
  EXPECT_TRUE(D.Feasible);
  ASSERT_FALSE(D.Diags.empty());
  EXPECT_EQ(D.Diags.front().Sev, Severity::Warning);
  EXPECT_EQ(support::firstError(D.Diags), nullptr);
}

//===----------------------------------------------------------------------===//
// Resource budgets
//===----------------------------------------------------------------------===//

TEST(Budgets, MeterNodeLimitIsExactAndSticky) {
  support::Budget B;
  B.NodeLimit = 3;
  support::BudgetMeter M(B);
  EXPECT_TRUE(M.charge());
  EXPECT_TRUE(M.charge());
  EXPECT_FALSE(M.charge()) << "the charge that reaches the limit trips it";
  EXPECT_TRUE(M.exhausted());
  EXPECT_FALSE(M.charge()) << "exhaustion is sticky";
  Diag D = M.diag("exhaustive");
  EXPECT_EQ(D.Code, StatusCode::BudgetExhausted);
  EXPECT_EQ(D.Site, "exhaustive");
}

TEST(Budgets, MeterTripsAndPropagatesCancellation) {
  support::CancelToken Tok;
  support::Budget B;
  B.NodeLimit = 1;
  B.Cancel = &Tok;
  support::BudgetMeter M(B);
  EXPECT_FALSE(M.charge());
  EXPECT_TRUE(Tok.cancelled()) << "exhaustion wakes sibling workers";

  Tok.reset();
  support::Budget B2;
  B2.Cancel = &Tok;
  support::BudgetMeter M2(B2);
  EXPECT_TRUE(M2.charge());
  Tok.cancel(); // External cancellation (e.g. gdpd's drain).
  EXPECT_FALSE(M2.charge());
  EXPECT_EQ(M2.diag("pool").Code, StatusCode::Cancelled);
}

TEST(Budgets, ExhaustiveNodeLimitKeepsAnchorsAndDeterminism) {
  PipelineOptions Opt;
  support::Budget B;
  B.NodeLimit = 5;
  ExhaustiveResult R = exhaustiveSearch(fir().PP, Opt, 1, &B);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_LT(R.EvaluatedPoints, R.Points.size());
  // The strategy anchor masks are always evaluated, so the budgeted best
  // can never be worse than any heuristic's placement.
  EXPECT_TRUE(R.Points[R.GDPMask].Evaluated);
  EXPECT_TRUE(R.Points[R.ProfileMaxMask].Evaluated);
  EXPECT_TRUE(R.Points[R.NaiveMask].Evaluated);
  EXPECT_LE(R.BestCycles, R.Points[R.GDPMask].Cycles);
  EXPECT_LE(R.BestCycles, R.Points[R.NaiveMask].Cycles);
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags.front().Code, StatusCode::BudgetExhausted);

  // A serial NodeLimit run replays bit-identically (docs/ROBUSTNESS.md).
  ExhaustiveResult R2 = exhaustiveSearch(fir().PP, Opt, 1, &B);
  EXPECT_EQ(bench::formatExhaustiveRecord("fir", 5, R),
            bench::formatExhaustiveRecord("fir", 5, R2));
}

TEST(Budgets, ExpiredDeadlineStillAnswersFromAnchors) {
  PipelineOptions Opt;
  support::Budget B;
  B.Deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  ExhaustiveResult R = exhaustiveSearch(fir().PP, Opt, 1, &B);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_GT(R.BestCycles, 0u);
  EXPECT_TRUE(R.Points[R.GDPMask].Evaluated);
}

TEST(Budgets, UnbudgetedSearchIsCompleteAndClean) {
  PipelineOptions Opt;
  ExhaustiveResult R = exhaustiveSearch(fir().PP, Opt, 1);
  ASSERT_TRUE(R.Ok);
  EXPECT_FALSE(R.BudgetExhausted);
  EXPECT_EQ(R.EvaluatedPoints, R.Points.size());
  EXPECT_TRUE(R.Diags.empty());
}

//===----------------------------------------------------------------------===//
// Exhaustive guards (total entry point)
//===----------------------------------------------------------------------===//

TEST(ExhaustiveGuards, TooManyObjectsIsDiagnosedNotAttempted) {
  std::string Text = "program many\n";
  for (unsigned I = 0; I != MaxExhaustiveObjects + 1; ++I)
    Text += "  obj" + std::to_string(I) + " o" + std::to_string(I) +
            ": global, 1 elems x 4 bytes (4 bytes)\n";
  Text += "func f0 main()\n"
          "bb0 (entry):\n"
          "  r0 = movi 0\n"
          "  ret r0\n";
  ParseResult PR = parseProgram(Text);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  PreparedProgram PP = prepareProgram(*PR.P);
  ASSERT_TRUE(PP.Ok) << PP.Error;
  PipelineOptions Opt;
  ExhaustiveResult R = exhaustiveSearch(PP, Opt);
  EXPECT_FALSE(R.Ok);
  ASSERT_NE(support::firstError(R.Diags), nullptr);
  EXPECT_EQ(support::firstError(R.Diags)->Code, StatusCode::TooLarge);
}

TEST(ExhaustiveGuards, WrongClusterCountIsDiagnosed) {
  PipelineOptions Opt;
  Opt.NumClusters = 4;
  ExhaustiveResult R = exhaustiveSearch(fir().PP, Opt);
  EXPECT_FALSE(R.Ok);
  ASSERT_NE(support::firstError(R.Diags), nullptr);
  EXPECT_EQ(support::firstError(R.Diags)->Code, StatusCode::UsageError);
}

TEST(ExhaustiveGuards, UnpreparedProgramIsDiagnosed) {
  PreparedProgram PP;
  PipelineOptions Opt;
  ExhaustiveResult R = exhaustiveSearch(PP, Opt);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Diags.empty());
}

//===----------------------------------------------------------------------===//
// Bench-harness fault isolation and thread invariance
//===----------------------------------------------------------------------===//

std::vector<bench::EvalTask> twoWorkloadMatrix() {
  std::vector<bench::EvalTask> Tasks;
  for (const bench::SuiteEntry *E : {&fir(), &viterbi()})
    for (StrategyKind K : {StrategyKind::GDP, StrategyKind::ProfileMax,
                           StrategyKind::Naive, StrategyKind::Unified})
      Tasks.push_back({E, K, 5});
  return Tasks;
}

TEST(BenchFaults, PoolTaskFaultPoisonsOnlyItsCellAtEveryThreadCount) {
  FaultPlan Plan = mustParse("pool.task:1@fir|GDP");
  ScopedBenchFaultPlan Install(&Plan);

  bench::setThreads(1);
  std::vector<std::string> Baseline =
      bench::runMatrixRecords(twoWorkloadMatrix());
  ASSERT_EQ(Baseline.size(), 8u);
  for (size_t I = 0; I != Baseline.size(); ++I) {
    bool Failed =
        Baseline[I].find("\"status\": \"failed\"") != std::string::npos;
    EXPECT_EQ(Failed, I == 0u) << "only fir|GDP (task 0) may fail: " << I;
  }
  EXPECT_NE(Baseline[0].find("\"task_failed\""), std::string::npos);

  for (unsigned Threads : {2u, 8u}) {
    bench::setThreads(Threads);
    EXPECT_EQ(bench::runMatrixRecords(twoWorkloadMatrix()), Baseline)
        << "fault-mode records must be byte-identical at " << Threads
        << " threads";
  }
}

TEST(BenchFaults, DegradedCellRecordsItsChainAtEveryThreadCount) {
  FaultPlan Plan = mustParse("rhop.lock:1@fir|GDP");
  ScopedBenchFaultPlan Install(&Plan);

  bench::setThreads(1);
  std::vector<std::string> Baseline =
      bench::runMatrixRecords(twoWorkloadMatrix());
  ASSERT_EQ(Baseline.size(), 8u);
  EXPECT_NE(Baseline[0].find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(Baseline[0].find("\"effective_strategy\": \"ProfileMax\""),
            std::string::npos);
  for (size_t I = 1; I != Baseline.size(); ++I)
    EXPECT_EQ(Baseline[I].find("\"status\""), std::string::npos) << I;

  for (unsigned Threads : {2u, 8u}) {
    bench::setThreads(Threads);
    EXPECT_EQ(bench::runMatrixRecords(twoWorkloadMatrix()), Baseline)
        << Threads << " threads";
  }
}

TEST(BenchFaults, SimBusFaultIsolatedInSimMatrix) {
  FaultPlan Plan = mustParse("sim.bus:1@fir|GDP");
  ScopedBenchFaultPlan Install(&Plan);

  bench::setThreads(1);
  std::vector<std::string> Baseline =
      bench::runSimMatrixRecords(twoWorkloadMatrix());
  ASSERT_EQ(Baseline.size(), 8u);
  for (size_t I = 0; I != Baseline.size(); ++I) {
    bool Failed =
        Baseline[I].find("\"status\": \"failed\"") != std::string::npos;
    EXPECT_EQ(Failed, I == 0u) << I;
  }
  EXPECT_NE(Baseline[0].find("\"fault_injected\""), std::string::npos);

  for (unsigned Threads : {2u, 8u}) {
    bench::setThreads(Threads);
    EXPECT_EQ(bench::runSimMatrixRecords(twoWorkloadMatrix()), Baseline)
        << Threads << " threads";
  }
}

TEST(BenchFaults, CleanRecordsCarryNoRobustnessFields) {
  // Golden-record stability: with no faults the records must not even
  // mention the robustness schema (byte-identical to the historic form).
  bench::setThreads(1);
  for (const std::string &Rec : bench::runMatrixRecords(twoWorkloadMatrix())) {
    EXPECT_EQ(Rec.find("\"status\""), std::string::npos);
    EXPECT_EQ(Rec.find("\"diags\""), std::string::npos);
    EXPECT_EQ(Rec.find("\"fallbacks\""), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Parser and verifier diagnostics (satellite b)
//===----------------------------------------------------------------------===//

TEST(InputDiags, ParserReportsLineColumnAndContext) {
  ParseResult R = parseProgram("program t\n"
                               "func f0 main()\n"
                               "bb0 (entry):\n"
                               "  r0 = bogusop 1\n"
                               "  ret r0\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Line, 4u);
  EXPECT_GT(R.Column, 0u);
  EXPECT_NE(R.Error.find("line 4"), std::string::npos) << R.Error;
  EXPECT_EQ(R.D.Code, StatusCode::ParseError);
  EXPECT_EQ(R.D.Site, "parser");
  bool HasLine = false;
  for (const auto &[K, V] : R.D.Context)
    HasLine |= (K == "line" && V == "4");
  EXPECT_TRUE(HasLine) << R.D.render();
}

TEST(InputDiags, VerifierDiagsCarryStructuredLocation) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  B.movi(1); // No terminator.
  VerifyResult VR = verifyProgram(*P);
  ASSERT_FALSE(VR.ok());
  ASSERT_EQ(VR.Diags.size(), VR.Errors.size())
      << "every rendered error has a structured twin";
  const Diag &D = VR.Diags.front();
  EXPECT_EQ(D.Code, StatusCode::VerifyError);
  EXPECT_EQ(D.Site, "verifier");
  bool HasFunction = false;
  for (const auto &[K, V] : D.Context)
    HasFunction |= (K == "function" && V == "main");
  EXPECT_TRUE(HasFunction) << D.render();
}

TEST(InputDiags, PreparationSurfacesVerifierDiags) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  B.movi(1); // No terminator: preparation must fail with diagnostics.
  PreparedProgram PP = prepareProgram(*P);
  EXPECT_FALSE(PP.Ok);
  ASSERT_NE(support::firstError(PP.Diags), nullptr);
  EXPECT_EQ(support::firstError(PP.Diags)->Code, StatusCode::VerifyError);
}

//===----------------------------------------------------------------------===//
// Simulator failure paths
//===----------------------------------------------------------------------===//

TEST(SimDiags, BusFaultFailsWithStructuredDiag) {
  FaultPlan Plan = mustParse("sim.bus:1");
  FaultScope Scope(&Plan, "unit");
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  PipelineResult R = runStrategy(fir().PP, Opt);
  ASSERT_TRUE(R.ok());
  SimResult S = simulateStrategy(fir().PP, R, Opt);
  EXPECT_FALSE(S.Ok);
  ASSERT_NE(support::firstError(S.Diags), nullptr);
  EXPECT_EQ(support::firstError(S.Diags)->Code, StatusCode::FaultInjected);
}

TEST(SimDiags, ResultWithoutScheduleIsAUsageError) {
  // The simulator replays the evaluation's schedule; a default result and
  // one failed before the schedule phase carry none.
  PipelineOptions Opt;
  SimResult Default = simulateStrategy(fir().PP, PipelineResult(), Opt);
  EXPECT_FALSE(Default.Ok);
  ASSERT_NE(support::firstError(Default.Diags), nullptr);
  EXPECT_EQ(support::firstError(Default.Diags)->Code, StatusCode::UsageError);

  support::CancelToken Tok;
  Tok.cancel();
  support::Budget B;
  B.Cancel = &Tok;
  Opt.EvalBudget = &B;
  PipelineResult Cancelled = runStrategy(fir().PP, Opt);
  ASSERT_TRUE(Cancelled.Failed);
  EXPECT_TRUE(Cancelled.Schedule.Blocks.empty());
  SimResult S = simulateStrategy(fir().PP, Cancelled, Opt);
  EXPECT_FALSE(S.Ok);
  ASSERT_NE(support::firstError(S.Diags), nullptr);
  EXPECT_EQ(support::firstError(S.Diags)->Code, StatusCode::UsageError);
}

TEST(SimDiags, MissingTraceIsAUsageError) {
  bench::SuiteEntry NoTrace;
  NoTrace.P = buildWorkload("fir");
  NoTrace.PP = prepareProgram(*NoTrace.P); // No trace capture.
  ASSERT_TRUE(NoTrace.PP.Ok);
  PipelineOptions Opt;
  PipelineResult R = runStrategy(NoTrace.PP, Opt);
  SimResult S = simulateStrategy(NoTrace.PP, R, Opt);
  EXPECT_FALSE(S.Ok);
  ASSERT_NE(support::firstError(S.Diags), nullptr);
  EXPECT_EQ(support::firstError(S.Diags)->Code, StatusCode::UsageError);
}

} // namespace
