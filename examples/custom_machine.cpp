//===- examples/custom_machine.cpp - Heterogeneous machine demo -----------------===//
//
// Demonstrates the machine-description API beyond the paper's default
// 2-cluster processor: a heterogeneous 4-cluster VLIW where cluster 0 is
// twice as wide as the rest (the paper's §2 example of balance on
// heterogeneous clusters), with slower interconnect. Partitions the whole
// suite and reports how data and computation spread over the clusters.
//
// Run: ./custom_machine [workload-name]   (default: whole suite summary)
//
//===----------------------------------------------------------------------===//

#include "partition/Pipeline.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace gdp;

static MachineModel buildHeterogeneousMachine() {
  MachineModel MM = MachineModel::makeDefault(4, /*MoveLatency=*/3);
  // Cluster 0: double-width integer and memory resources.
  ClusterConfig Wide;
  Wide.NumInteger = 4;
  Wide.NumFloat = 2;
  Wide.NumMemory = 2;
  Wide.NumBranch = 1;
  MM.setCluster(0, Wide);
  MM.setMoveBandwidth(2);
  return MM;
}

static void report(const std::string &Name, const PreparedProgram &PP,
                   const MachineModel &MM) {
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  Opt.Machine = &MM;
  PipelineResult R = runStrategy(PP, Opt);

  // The same machine under the Unified strategy: one shared memory.
  PipelineOptions UniOpt = Opt;
  UniOpt.Strategy = StrategyKind::Unified;
  uint64_t Unified = runStrategy(PP, UniOpt).Cycles;

  // Data and operation distribution across the 4 clusters.
  auto Bytes = R.Placement.bytesPerCluster(*PP.P, 4);
  std::vector<uint64_t> Ops(4, 0);
  for (unsigned F = 0; F != PP.P->getNumFunctions(); ++F) {
    const Function &Fn = PP.P->getFunction(F);
    for (const auto &BB : Fn.blocks())
      for (const auto &Op : BB->operations())
        ++Ops[static_cast<unsigned>(
            R.Assignment.get(F, static_cast<unsigned>(Op->getId())))];
  }

  std::printf("%-10s GDP=%6.1f%% of unified   bytes/cluster:", Name.c_str(),
              100.0 * static_cast<double>(Unified) /
                  static_cast<double>(R.Cycles));
  for (uint64_t B : Bytes)
    std::printf(" %6llu", static_cast<unsigned long long>(B));
  std::printf("   ops:");
  for (uint64_t O : Ops)
    std::printf(" %4llu", static_cast<unsigned long long>(O));
  std::printf("\n");
}

int main(int argc, char **argv) {
  MachineModel MM = buildHeterogeneousMachine();
  std::printf("heterogeneous machine: 4 clusters, cluster 0 double-width "
              "(4I/2F/2M/1B),\nclusters 1-3 standard (2I/1F/1M/1B); "
              "interconnect 2 moves/cycle at 3 cycles\n\n");

  for (const WorkloadInfo &W : allWorkloads()) {
    if (argc > 1 && W.Name != argv[1])
      continue;
    auto P = W.Build();
    PreparedProgram PP = prepareProgram(*P);
    if (!PP.Ok) {
      std::fprintf(stderr, "prepare(%s) failed: %s\n", W.Name.c_str(),
                   PP.Error.c_str());
      return 1;
    }
    report(W.Name, PP, MM);
  }
  std::printf("\nNote how the byte distribution leans toward cluster 0: the "
              "partitioner's\nbalance constraints are per-cluster capacities, "
              "and the wide cluster absorbs\nmore of the hot objects' "
              "computation.\n");
  return 0;
}
