//===- bench/abl_merging.cpp - Ablation A: merge policies ----------------------===//
//
// Paper §3.3.1 evaluates and rejects merging dependent operations with low
// slack into the access-pattern merge ("fewer groupings of objects allowed
// for more freedom and flexibility in the partitioning process"). This
// ablation runs GDP under all three merge policies.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <cstdio>

using namespace gdp;
using namespace gdp::bench;

int main(int argc, char **argv) {
  initBench(argc, argv);
  expectNoArgs(argc, argv);
  banner("Ablation A: access-pattern merging policies (GDP, 5-cycle moves)",
         "Chu & Mahlke, CGO'06, §3.3.1 (design-choice discussion)");

  auto Suite = loadSuite();
  TextTable Table({"benchmark", "access-pattern", "+dependence", "none"});
  Stats A, B, C;

  for (const SuiteEntry &E : Suite) {
    uint64_t Unified = run(E, StrategyKind::Unified, 5).Cycles;
    auto RunPolicy = [&](MergePolicy Policy) {
      PipelineOptions Opt;
      Opt.Strategy = StrategyKind::GDP;
      Opt.MoveLatency = 5;
      Opt.DataOpt.Policy = Policy;
      return relativePerf(Unified, runStrategy(E.PP, Opt).Cycles);
    };
    double RA = RunPolicy(MergePolicy::AccessPattern);
    double RB = RunPolicy(MergePolicy::AccessPatternAndDependence);
    double RC = RunPolicy(MergePolicy::None);
    A.add(RA);
    B.add(RB);
    C.add(RC);
    Table.addRow({E.Name, formatPercent(RA), formatPercent(RB),
                  formatPercent(RC)});
  }
  Table.addRow({"average", formatPercent(A.mean()), formatPercent(B.mean()),
                formatPercent(C.mean())});
  std::printf("%s\n", Table.render().c_str());
  std::printf("Paper claim under test: pure access-pattern merging beats "
              "adding low-slack\ndependence merges (over-grouping reduces "
              "placement freedom). Disabling merging\nentirely risks "
              "splitting objects one operation must reach.\n");
  return 0;
}
