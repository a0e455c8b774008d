//===- tests/BenchDiffTests.cpp - bench_diff comparison tests ---------------===//
//
// Covers bench/BenchDiff.h: flattening of both benchmark JSON schemas,
// the regression rule (strictly worse than baseline * (1 + tolerance)),
// per-metric tolerance overrides, missing/new record handling, the
// newly-failed status rule, and error reporting on malformed input. The
// CLI exit-code contract of the bench_diff binary is asserted by ctest
// entries (tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchDiff.h"

#include <gtest/gtest.h>

using namespace gdp::bench;

namespace {

std::string benchFile(uint64_t Cycles, uint64_t Moves,
                      const char *Status = "ok") {
  std::string S = "{\n  \"schema\": \"gdp-bench-v1\",\n  \"records\": [\n";
  S += "    {\"benchmark\": \"fir\", \"strategy\": \"GDP\", "
       "\"move_latency\": 5, \"cycles\": " +
       std::to_string(Cycles) +
       ", \"dynamic_moves\": " + std::to_string(Moves) +
       ", \"status\": \"" + Status + "\"}\n  ]\n}\n";
  return S;
}

TEST(BenchDiff, IdenticalFilesCompareClean) {
  std::string F = benchFile(1000, 50);
  DiffResult R = diffBenchJson(F, F, DiffOptions());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.regressed());
  EXPECT_EQ(R.Regressions, 0u);
  EXPECT_EQ(R.Deltas.size(), 2u); // cycles + dynamic_moves
  EXPECT_TRUE(R.MissingInCurrent.empty());
  EXPECT_TRUE(R.NewInCurrent.empty());
}

TEST(BenchDiff, RegressionPastToleranceFlagged) {
  DiffOptions Opt;
  Opt.DefaultTolerance = 0.05;
  // +4.9% passes, +5.1% fails: the boundary is baseline * 1.05.
  DiffResult Pass =
      diffBenchJson(benchFile(1000, 50), benchFile(1049, 50), Opt);
  ASSERT_TRUE(Pass.Ok);
  EXPECT_FALSE(Pass.regressed());
  DiffResult Fail =
      diffBenchJson(benchFile(1000, 50), benchFile(1051, 50), Opt);
  ASSERT_TRUE(Fail.Ok);
  EXPECT_TRUE(Fail.regressed());
  ASSERT_EQ(Fail.Regressions, 1u);
  const MetricDelta *Bad = nullptr;
  for (const MetricDelta &D : Fail.Deltas)
    if (D.Regressed)
      Bad = &D;
  ASSERT_TRUE(Bad);
  EXPECT_EQ(Bad->Metric, "cycles");
  EXPECT_EQ(Bad->Baseline, 1000);
  EXPECT_EQ(Bad->Current, 1051);
}

TEST(BenchDiff, ImprovementNeverRegresses) {
  DiffResult R =
      diffBenchJson(benchFile(1000, 50), benchFile(900, 10), DiffOptions());
  ASSERT_TRUE(R.Ok);
  EXPECT_FALSE(R.regressed());
  for (const MetricDelta &D : R.Deltas)
    EXPECT_TRUE(D.Improved);
}

TEST(BenchDiff, PerMetricToleranceOverridesDefault) {
  DiffOptions Opt;
  Opt.DefaultTolerance = 0;
  Opt.MetricTolerance["cycles"] = 0.10;
  // cycles +8% is inside its override; dynamic_moves +1 violates the
  // zero default.
  DiffResult R =
      diffBenchJson(benchFile(1000, 50), benchFile(1080, 51), Opt);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Regressions, 1u);
  for (const MetricDelta &D : R.Deltas)
    EXPECT_EQ(D.Regressed, D.Metric == "dynamic_moves") << D.Metric;
}

TEST(BenchDiff, ZeroBaselineOnlyToleratesZero) {
  // Relative tolerance is meaningless on a 0 baseline: any nonzero
  // current is a regression, zero is clean.
  DiffOptions Opt;
  Opt.DefaultTolerance = 0.5;
  DiffResult Clean =
      diffBenchJson(benchFile(1000, 0), benchFile(1000, 0), Opt);
  ASSERT_TRUE(Clean.Ok);
  EXPECT_FALSE(Clean.regressed());
  DiffResult Dirty =
      diffBenchJson(benchFile(1000, 0), benchFile(1000, 1), Opt);
  ASSERT_TRUE(Dirty.Ok);
  EXPECT_TRUE(Dirty.regressed());
}

TEST(BenchDiff, MissingRecordGatesUnlessAllowed) {
  const char *Empty =
      "{\"schema\": \"gdp-bench-v1\", \"records\": []}";
  DiffResult Strict =
      diffBenchJson(benchFile(1000, 50), Empty, DiffOptions());
  ASSERT_TRUE(Strict.Ok);
  EXPECT_TRUE(Strict.regressed());
  ASSERT_EQ(Strict.MissingInCurrent.size(), 1u);
  EXPECT_EQ(Strict.MissingInCurrent[0], "fir|GDP|lat5");

  DiffOptions Allow;
  Allow.AllowMissing = true;
  DiffResult Lax = diffBenchJson(benchFile(1000, 50), Empty, Allow);
  ASSERT_TRUE(Lax.Ok);
  EXPECT_FALSE(Lax.regressed());
  EXPECT_EQ(Lax.MissingInCurrent.size(), 1u);
}

TEST(BenchDiff, NewRecordsReportedNotGated) {
  const char *Empty =
      "{\"schema\": \"gdp-bench-v1\", \"records\": []}";
  DiffResult R = diffBenchJson(Empty, benchFile(1000, 50), DiffOptions());
  ASSERT_TRUE(R.Ok);
  EXPECT_FALSE(R.regressed());
  ASSERT_EQ(R.NewInCurrent.size(), 1u);
  EXPECT_EQ(R.NewInCurrent[0], "fir|GDP|lat5");
}

TEST(BenchDiff, NewlyFailedRunIsARegression) {
  DiffResult R = diffBenchJson(benchFile(1000, 50),
                               benchFile(1000, 50, "failed"), DiffOptions());
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.regressed());
  ASSERT_EQ(R.Deltas.size(), 1u);
  EXPECT_EQ(R.Deltas[0].Metric, "status");
  // A baseline that already failed doesn't re-flag (and its metrics
  // still compare, catching a failed run that also got slower).
  DiffResult Same = diffBenchJson(benchFile(1000, 50, "failed"),
                                  benchFile(1000, 50, "failed"),
                                  DiffOptions());
  ASSERT_TRUE(Same.Ok);
  EXPECT_FALSE(Same.regressed());
}

TEST(BenchDiff, SimRecordsKeyedSeparately) {
  // A record carrying sim_cycles keys with a |sim suffix, so static-only
  // and simulated evaluations of the same point never cross-compare.
  const char *Sim =
      "{\"schema\": \"gdp-bench-v1\", \"records\": ["
      "{\"benchmark\": \"fir\", \"strategy\": \"GDP\", \"move_latency\": 5,"
      " \"cycles\": 1000, \"sim_cycles\": 1010}]}";
  DiffResult R = diffBenchJson(Sim, Sim, DiffOptions());
  ASSERT_TRUE(R.Ok);
  EXPECT_FALSE(R.regressed());
  DiffResult Cross = diffBenchJson(Sim, benchFile(1000, 50), DiffOptions());
  ASSERT_TRUE(Cross.Ok);
  ASSERT_EQ(Cross.MissingInCurrent.size(), 1u);
  EXPECT_EQ(Cross.MissingInCurrent[0], "fir|GDP|lat5|sim");
}

TEST(BenchDiff, CompileSpeedSchemaComparesWallSeconds) {
  auto File = [](double Wall) {
    return std::string("{\"schema\": \"gdp-compile-speed-v1\", "
                       "\"workloads\": [{\"workload\": \"fir\", "
                       "\"workload_wall_sec\": ") +
           std::to_string(Wall) + "}]}";
  };
  DiffOptions Opt;
  Opt.MetricTolerance["workload_wall_sec"] = 1.0; // +100%
  DiffResult Pass = diffBenchJson(File(0.5), File(0.9), Opt);
  ASSERT_TRUE(Pass.Ok);
  EXPECT_FALSE(Pass.regressed());
  DiffResult Fail = diffBenchJson(File(0.5), File(1.5), Opt);
  ASSERT_TRUE(Fail.Ok);
  EXPECT_TRUE(Fail.regressed());
}

TEST(BenchDiff, GenScaleSchemaGatesDeterministicFields) {
  // A gdp-gen-scale-v1 file with one size, two thread counts and two
  // strategies; \p GDPCycles is GDP's cycles at 2 threads.
  auto File = [](uint64_t GDPCycles, double Sec, bool WithTwoThreads) {
    auto Run = [&](unsigned Threads, uint64_t Cycles) {
      return "{\"threads\": " + std::to_string(Threads) +
             ", \"matrix_wall_sec\": " + std::to_string(Sec) +
             ", \"strategies\": [{\"strategy\": \"GDP\", \"cycles\": " +
             std::to_string(Cycles) +
             ", \"dyn_moves\": 7, \"static_moves\": 3, \"rhop_runs\": 1, "
             "\"partition_sec\": " +
             std::to_string(Sec) +
             "}, {\"strategy\": \"Naive\", \"cycles\": 900, "
             "\"dyn_moves\": 9, \"static_moves\": 4, \"rhop_runs\": 1}]}";
    };
    std::string Runs = Run(1, 1000);
    if (WithTwoThreads)
      Runs += ", " + Run(2, GDPCycles);
    return "{\"schema\": \"gdp-gen-scale-v1\", \"records\": [{\"ops\": "
           "1000, \"prepare_sec\": " +
           std::to_string(Sec) + ", \"thread_runs\": [" + Runs + "]}]}";
  };
  // Clean: equal deterministic fields; the *_sec fields may differ.
  DiffResult Clean =
      diffBenchJson(File(1000, 0.5, true), File(1000, 9.0, true),
                    DiffOptions());
  ASSERT_TRUE(Clean.Ok) << Clean.Error;
  EXPECT_FALSE(Clean.regressed());
  EXPECT_EQ(Clean.Deltas.size(), 16u); // 4 records x 4 metrics.
  for (const MetricDelta &D : Clean.Deltas)
    EXPECT_EQ(D.Metric.find("_sec"), std::string::npos) << D.Metric;

  // Regressed: one cycle more for GDP at 2 threads, at tolerance 0.
  DiffResult Worse = diffBenchJson(File(1000, 0.5, true),
                                   File(1001, 0.5, true), DiffOptions());
  ASSERT_TRUE(Worse.Ok);
  ASSERT_EQ(Worse.Regressions, 1u);
  for (const MetricDelta &D : Worse.Deltas)
    if (D.Regressed) {
      EXPECT_EQ(D.Key, "ops1000|threads2|GDP");
      EXPECT_EQ(D.Metric, "cycles");
    }

  // Missing: the 2-thread run is absent; a regression unless allowed.
  DiffResult Missing = diffBenchJson(File(1000, 0.5, true),
                                     File(1000, 0.5, false), DiffOptions());
  ASSERT_TRUE(Missing.Ok);
  ASSERT_EQ(Missing.MissingInCurrent.size(), 2u);
  EXPECT_EQ(Missing.MissingInCurrent[0], "ops1000|threads2|GDP");
  EXPECT_TRUE(Missing.regressed());
  DiffOptions Allow;
  Allow.AllowMissing = true;
  EXPECT_FALSE(diffBenchJson(File(1000, 0.5, true), File(1000, 0.5, false),
                             Allow)
                   .regressed());
}

TEST(BenchDiff, GenScaleRecordsFromDifferentSeedsDoNotCompare) {
  // gen_scale seeds each size by its position in --sizes, so a lone
  // --sizes=100000 run generates seed 101 where the baseline's 10^5-op
  // program is seed 103: a different program, not a regression.
  auto File = [](unsigned Seed, unsigned Cycles) {
    return "{\"schema\": \"gdp-gen-scale-v1\", \"records\": [{\"ops\": "
           "100000, \"seed\": " +
           std::to_string(Seed) +
           ", \"thread_runs\": [{\"threads\": 1, \"strategies\": "
           "[{\"strategy\": \"GDP\", \"cycles\": " +
           std::to_string(Cycles) +
           ", \"dyn_moves\": 7, \"static_moves\": 3, \"rhop_runs\": 1}]}]}]}";
  };
  DiffOptions Allow;
  Allow.AllowMissing = true;
  DiffResult Other =
      diffBenchJson(File(103, 30467), File(101, 3574786), Allow);
  ASSERT_TRUE(Other.Ok) << Other.Error;
  EXPECT_FALSE(Other.regressed());
  EXPECT_TRUE(Other.Deltas.empty());
  ASSERT_EQ(Other.MissingInCurrent.size(), 1u);
  EXPECT_EQ(Other.MissingInCurrent[0], "ops100000|seed103|threads1|GDP");
  ASSERT_EQ(Other.NewInCurrent.size(), 1u);
  EXPECT_EQ(Other.NewInCurrent[0], "ops100000|seed101|threads1|GDP");

  // The same seed still compares, and still gates.
  DiffResult Same =
      diffBenchJson(File(103, 30467), File(103, 30468), DiffOptions());
  ASSERT_TRUE(Same.Ok);
  EXPECT_EQ(Same.Regressions, 1u);
  EXPECT_TRUE(Same.MissingInCurrent.empty());
}

TEST(BenchDiff, MalformedInputReportsError) {
  std::string Good = benchFile(1000, 50);
  DiffResult BadJson = diffBenchJson("{not json", Good, DiffOptions());
  EXPECT_FALSE(BadJson.Ok);
  EXPECT_NE(BadJson.Error.find("baseline"), std::string::npos);
  DiffResult BadSchema = diffBenchJson(
      Good, "{\"schema\": \"wat-v9\", \"records\": []}", DiffOptions());
  EXPECT_FALSE(BadSchema.Ok);
  EXPECT_NE(BadSchema.Error.find("unknown schema"), std::string::npos);
  DiffResult NoSchema = diffBenchJson(Good, "{}", DiffOptions());
  EXPECT_FALSE(NoSchema.Ok);
}

TEST(BenchDiff, ReportRendersRegressionsAndSummary) {
  DiffResult R =
      diffBenchJson(benchFile(1000, 50), benchFile(2000, 50), DiffOptions());
  ASSERT_TRUE(R.Ok);
  std::string Report = renderDiffReport(R, /*Verbose=*/false);
  EXPECT_NE(Report.find("REGRESSION"), std::string::npos);
  EXPECT_NE(Report.find("cycles 1000 -> 2000"), std::string::npos);
  EXPECT_NE(Report.find("1 regressions"), std::string::npos);
  // Non-verbose drops the clean dynamic_moves line; verbose keeps it.
  EXPECT_EQ(Report.find("dynamic_moves"), std::string::npos);
  std::string Full = renderDiffReport(R, /*Verbose=*/true);
  EXPECT_NE(Full.find("dynamic_moves"), std::string::npos);
}

} // namespace
