//===- tests/GoldenTests.cpp - Golden-output regression tests ----------------===//
//
// Small-configuration runs of the fig2 / fig7 / fig9 / fig10 experiment
// pipelines, and GDP's first pass on the suite under every merge policy,
// compared byte-for-byte against checked-in golden JSON under
// tests/golden/. Every field in these files is deterministic (wall-clock
// fields are written in deterministic mode, i.e. zeroed), so any diff is a
// real behaviour change in the partitioners, the scheduler or the record
// format — inspect it, and if it is intentional regenerate the goldens:
//
//   UPDATE_GOLDEN=1 ./build/tests/gdp_tests --gtest_filter='Golden.*'
//
// then commit the rewritten tests/golden/*.json together with the change
// that caused them.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "partition/Exhaustive.h"
#include "partition/GlobalDataPartitioner.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace gdp;

#ifndef GDP_GOLDEN_DIR
#error "tests/CMakeLists.txt must define GDP_GOLDEN_DIR"
#endif

namespace {

/// The small golden configuration: two codecs and two kernels — enough to
/// pin every strategy and the exhaustive search without slow runs.
const std::vector<bench::SuiteEntry> &entries() {
  static std::vector<bench::SuiteEntry> Entries = [] {
    std::vector<bench::SuiteEntry> Out;
    for (const char *Name : {"rawcaudio", "rawdaudio", "fir", "fsed"}) {
      bench::SuiteEntry E;
      E.Name = Name;
      E.P = buildWorkload(Name);
      E.PP = prepareProgram(*E.P);
      if (!E.PP.Ok)
        ADD_FAILURE() << Name << ": " << E.PP.Error;
      Out.push_back(std::move(E));
    }
    return Out;
  }();
  return Entries;
}

/// Renders records the way BenchCommon's --json writer does, with a
/// per-figure schema tag.
std::string renderGolden(const std::string &Schema,
                         const std::vector<std::string> &Records) {
  std::string Body = "{\n  \"schema\": \"" + Schema + "\",\n  \"records\": [";
  for (size_t I = 0; I != Records.size(); ++I) {
    Body += I ? ",\n    " : "\n    ";
    Body += Records[I];
  }
  Body += "\n  ]\n}\n";
  return Body;
}

/// Compares \p Content to the checked-in golden (or rewrites it under
/// UPDATE_GOLDEN=1).
void checkGolden(const std::string &Name, const std::string &Content) {
  std::string Path = std::string(GDP_GOLDEN_DIR) + "/" + Name;
  const char *Update = std::getenv("UPDATE_GOLDEN");
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Content;
    SUCCEED() << "rewrote " << Path;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In) << "missing golden file " << Path
                  << " — regenerate with UPDATE_GOLDEN=1 (see file header)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Content)
      << Name << " diverged from the checked-in golden. If the change is "
      << "intentional, rerun with UPDATE_GOLDEN=1 and commit the new file.";
}

std::vector<std::string> matrixRecords(const std::vector<StrategyKind> &Kinds,
                                       const std::vector<unsigned> &Lats) {
  bench::setThreads(1);
  std::vector<bench::EvalTask> Tasks;
  for (const bench::SuiteEntry &E : entries())
    for (StrategyKind K : Kinds)
      for (unsigned Lat : Lats)
        Tasks.push_back({&E, K, Lat});
  return bench::runMatrixRecords(Tasks);
}

TEST(Golden, Fig2NaiveOverhead) {
  // fig2: the naive-placement overhead — Unified vs Naive across move
  // latencies.
  checkGolden("fig2.json",
              renderGolden("gdp-golden-fig2-v1",
                           matrixRecords({StrategyKind::Unified,
                                          StrategyKind::Naive},
                                         {1, 5, 10})));
}

TEST(Golden, Fig7Performance) {
  // fig7: all four strategies at move latency 1.
  checkGolden("fig7.json",
              renderGolden("gdp-golden-fig7-v1",
                           matrixRecords({StrategyKind::GDP,
                                          StrategyKind::ProfileMax,
                                          StrategyKind::Naive,
                                          StrategyKind::Unified},
                                         {1})));
}

TEST(Golden, Fig10Traffic) {
  // fig10: all four strategies at the paper-default latency 5 (the
  // intercluster-traffic comparison reads the move counters).
  checkGolden("fig10.json",
              renderGolden("gdp-golden-fig10-v1",
                           matrixRecords({StrategyKind::GDP,
                                          StrategyKind::ProfileMax,
                                          StrategyKind::Naive,
                                          StrategyKind::Unified},
                                         {5})));
}

TEST(Golden, Fig9Exhaustive) {
  // fig9: the exhaustive placement search on the two codecs (2^N runs
  // each), pinning the whole optimum/worst/mask summary.
  std::vector<std::string> Records;
  for (const bench::SuiteEntry &E : entries()) {
    if (E.Name != "rawcaudio" && E.Name != "rawdaudio")
      continue;
    PipelineOptions Opt;
    Opt.MoveLatency = 5;
    ExhaustiveResult R = exhaustiveSearch(E.PP, Opt, 1);
    Records.push_back(bench::formatExhaustiveRecord(E.Name, 5, R));
  }
  ASSERT_EQ(Records.size(), 2u);
  checkGolden("fig9.json", renderGolden("gdp-golden-fig9-v1", Records));
}

TEST(Golden, MergePolicies) {
  // GDP's first pass on every suite kernel under every merge policy, at 2
  // and 4 clusters. None and AccessPatternAndDependence are the only paths
  // that put op-to-object access edges and dependence merges into the
  // group graph. The options are the ones runStrategy passes for the
  // paper's machine: its cluster memory as the capacity, and no capacity
  // shares because every cluster has the same memory units.
  const std::pair<MergePolicy, const char *> Policies[] = {
      {MergePolicy::AccessPattern, "access_pattern"},
      {MergePolicy::AccessPatternAndDependence, "access_pattern_dependence"},
      {MergePolicy::None, "none"}};
  bench::setThreads(1);
  std::vector<std::string> Records;
  for (const bench::SuiteEntry &E : bench::loadSuite())
    for (unsigned Clusters : {2u, 4u}) {
      PipelineOptions PO;
      PO.NumClusters = Clusters;
      MachineModel MM = machineFor(PO);
      for (unsigned C = 1; C != Clusters; ++C)
        ASSERT_EQ(MM.getFUCount(C, FUKind::Memory),
                  MM.getFUCount(0, FUKind::Memory));
      GDPOptions Opt;
      Opt.MemCapacityBytes = MM.getClusterMemoryBytes();
      for (const auto &[Policy, Name] : Policies) {
        Opt.Policy = Policy;
        GDPResult R = runGlobalDataPartitioning(*E.PP.Analyses, E.PP.Prof,
                                                Clusters, Opt);
        std::string Rec = "{\"benchmark\": \"" + E.Name +
                          "\", \"policy\": \"" + Name +
                          "\", \"clusters\": " + std::to_string(Clusters) +
                          ", \"cut_weight\": " +
                          std::to_string(R.CutWeight) +
                          ", \"groups\": " + std::to_string(R.NumGroups) +
                          ", \"feasible\": " +
                          (R.Feasible ? "true" : "false") +
                          ", \"diags\": [";
        for (size_t I = 0; I != R.Diags.size(); ++I)
          Rec += (I ? ", " : "") + R.Diags[I].toJson();
        Rec += "], \"homes\": [";
        for (unsigned Obj = 0; Obj != R.Placement.getNumObjects(); ++Obj)
          Rec += (Obj ? ", " : "") +
                 std::to_string(R.Placement.getHome(Obj));
        Records.push_back(Rec + "]}");
      }
    }
  ASSERT_EQ(Records.size(), 16u * 2 * 3);
  checkGolden("merge_policies.json",
              renderGolden("gdp-golden-merge-policies-v1", Records));
}

} // namespace
