//===- bench/fig2_naive_overhead.cpp - Paper Figure 2 -------------------------===//
//
// "Increase in cycles when data is partitioned across clusters": the Naive
// postpass placement versus the unified-memory model, at intercluster move
// latencies of 1, 5 and 10 cycles. Expected shape: small overheads at
// latency 1, growing (for the memory-parallel benchmarks) at 5 and 10;
// serial benchmarks such as rawdaudio stay near zero exactly as the paper
// observes.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <cstdio>

using namespace gdp;
using namespace gdp::bench;

int main(int argc, char **argv) {
  initBench(argc, argv);
  expectNoArgs(argc, argv);
  banner("Figure 2: cycle increase of Naive data placement vs unified memory",
         "Chu & Mahlke, CGO'06, Figure 2");

  auto Suite = loadSuite();
  TextTable Table({"benchmark", "+1cyc", "+5cyc", "+10cyc"});
  Stats Avg1, Avg5, Avg10;

  // The whole (benchmark × latency × strategy) matrix in one go: the
  // harness evaluates it concurrently under --threads/GDP_THREADS and
  // hands the results back in input order.
  std::vector<EvalTask> Tasks;
  for (const SuiteEntry &E : Suite)
    for (unsigned Lat : {1u, 5u, 10u}) {
      Tasks.push_back({&E, StrategyKind::Unified, Lat});
      Tasks.push_back({&E, StrategyKind::Naive, Lat});
    }
  std::vector<CellResult> Results = runMatrix(Tasks);

  size_t Next = 0;
  for (const SuiteEntry &E : Suite) {
    std::vector<std::string> Row{E.Name};
    for (unsigned Lat : {1u, 5u, 10u}) {
      uint64_t Unified = Results[Next++].R.Cycles;
      uint64_t Naive = Results[Next++].R.Cycles;
      double Overhead =
          static_cast<double>(Naive) / static_cast<double>(Unified) - 1.0;
      Row.push_back(formatPercent(Overhead));
      (Lat == 1 ? Avg1 : Lat == 5 ? Avg5 : Avg10).add(Overhead);
    }
    Table.addRow(std::move(Row));
  }
  Table.addRow({"average", formatPercent(Avg1.mean()),
                formatPercent(Avg5.mean()), formatPercent(Avg10.mean())});
  std::printf("%s\n", Table.render().c_str());
  std::printf("Paper shape: overheads grow with move latency; benchmarks "
              "whose moves hide\nbehind existing communication (e.g. "
              "rawdaudio) show little difference.\n");
  return 0;
}
