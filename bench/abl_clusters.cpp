//===- bench/abl_clusters.cpp - Ablation C: cluster scaling ---------------------===//
//
// Beyond the paper's 2-cluster evaluation machine: GDP versus unified on 1,
// 2 and 4 homogeneous clusters (the scalability motivation of §1 — more
// clusters mean more aggregate function units but more distribution
// pressure on both data and computation).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <cstdio>

using namespace gdp;
using namespace gdp::bench;

int main(int argc, char **argv) {
  initBench(argc, argv);
  expectNoArgs(argc, argv);
  banner("Ablation C: cluster-count scaling (GDP vs unified, 5-cycle moves)",
         "extension of Chu & Mahlke, CGO'06 §4 (machine scaling)");

  auto Suite = loadSuite();
  TextTable Table({"benchmark", "1-cluster cyc", "2cl unified", "2cl GDP",
                   "4cl unified", "4cl GDP"});

  for (const SuiteEntry &E : Suite) {
    std::vector<std::string> Row{E.Name};
    MachineModel One = MachineModel::makeDefault(1, 5);
    PipelineOptions OneOpt;
    OneOpt.Strategy = StrategyKind::Unified;
    OneOpt.Machine = &One;
    uint64_t Base = runStrategy(E.PP, OneOpt).Cycles;
    Row.push_back(formatStr("%llu", static_cast<unsigned long long>(Base)));

    for (unsigned Clusters : {2u, 4u}) {
      for (StrategyKind K : {StrategyKind::Unified, StrategyKind::GDP}) {
        PipelineOptions Opt;
        Opt.Strategy = K;
        Opt.NumClusters = Clusters;
        uint64_t Cycles = runStrategy(E.PP, Opt).Cycles;
        // Speedup over the single-cluster machine.
        Row.push_back(formatDouble(
            static_cast<double>(Base) / static_cast<double>(Cycles), 2));
      }
    }
    Table.addRow(std::move(Row));
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("Columns 3-6 are speedups over the 1-cluster machine. Expected "
              "shape: extra\nclusters help ILP-rich kernels; GDP tracks the "
              "unified upper bound while paying\nfor data locality, and the "
              "gap widens at 4 clusters where placement is harder.\n");
  return 0;
}
