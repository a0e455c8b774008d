//===- examples/mediabench_report.cpp - Full evaluation in one shot ------------===//
//
// Reproduces the core of the paper's evaluation section as one report: for
// every benchmark in the suite and every intercluster move latency (1, 5,
// 10 cycles), the cycle counts and dynamic intercluster move counts of all
// four strategies (Table 1), with relative performance versus the unified
// memory upper bound.
//
// Run: ./mediabench_report [latency...]    (default: 1 5 10)
//
//===----------------------------------------------------------------------===//

#include "partition/Pipeline.h"
#include "support/Histogram.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <charconv>
#include <cstdio>
#include <cstring>

using namespace gdp;

int main(int argc, char **argv) {
  std::vector<unsigned> Latencies;
  for (int I = 1; I < argc; ++I) {
    const char *End = argv[I] + std::strlen(argv[I]);
    unsigned Lat = 0;
    auto [Ptr, Ec] = std::from_chars(argv[I], End, Lat);
    if (Ec != std::errc() || Ptr != End || Lat == 0) {
      std::fprintf(stderr,
                   "error: latency '%s' is not a positive integer\n"
                   "usage: mediabench_report [latency...]\n",
                   argv[I]);
      return 1;
    }
    Latencies.push_back(Lat);
  }
  if (Latencies.empty())
    Latencies = {1, 5, 10};

  // Prepare the whole suite once: the paper's benchmarks, without the
  // `extra` kernels the figure benches leave out too.
  struct Entry {
    std::string Name;
    std::unique_ptr<Program> P;
    PreparedProgram PP;
  };
  std::vector<Entry> Suite;
  for (const WorkloadInfo &W : allWorkloads()) {
    if (W.Suite == "extra")
      continue;
    Entry E;
    E.Name = W.Name;
    E.P = W.Build();
    E.PP = prepareProgram(*E.P);
    if (!E.PP.Ok) {
      std::fprintf(stderr, "prepare(%s) failed: %s\n", W.Name.c_str(),
                   E.PP.Error.c_str());
      return 1;
    }
    Suite.push_back(std::move(E));
  }

  for (unsigned Lat : Latencies) {
    std::printf("\n===== intercluster move latency: %u cycle%s =====\n", Lat,
                Lat == 1 ? "" : "s");
    TextTable Table({"benchmark", "unified cyc", "GDP", "ProfileMax",
                     "Naive", "GDP moves", "unified moves"});
    Stats GDPAvg, PMAvg, NaiveAvg;
    for (const Entry &E : Suite) {
      uint64_t Cycles[4];
      uint64_t Moves[4];
      StrategyKind Kinds[4] = {StrategyKind::Unified, StrategyKind::GDP,
                               StrategyKind::ProfileMax, StrategyKind::Naive};
      for (int K = 0; K != 4; ++K) {
        PipelineOptions Opt;
        Opt.Strategy = Kinds[K];
        Opt.MoveLatency = Lat;
        PipelineResult R = runStrategy(E.PP, Opt);
        Cycles[K] = R.Cycles;
        Moves[K] = R.DynamicMoves;
      }
      auto Rel = [&](int K) {
        return static_cast<double>(Cycles[0]) /
               static_cast<double>(Cycles[K]);
      };
      GDPAvg.add(Rel(1));
      PMAvg.add(Rel(2));
      NaiveAvg.add(Rel(3));
      Table.addRow({E.Name,
                    formatStr("%llu",
                              static_cast<unsigned long long>(Cycles[0])),
                    formatPercent(Rel(1)), formatPercent(Rel(2)),
                    formatPercent(Rel(3)),
                    formatStr("%llu",
                              static_cast<unsigned long long>(Moves[1])),
                    formatStr("%llu",
                              static_cast<unsigned long long>(Moves[0]))});
    }
    Table.addRow({"average", "", formatPercent(GDPAvg.mean()),
                  formatPercent(PMAvg.mean()), formatPercent(NaiveAvg.mean()),
                  "", ""});
    std::printf("%s", Table.render().c_str());
  }
  std::printf("\nPaper reference (2 clusters): GDP averaged 95.6%% of unified "
              "at 5-cycle moves\nand 96.3%% at 10; Profile Max 90.0%% and "
              "88.1%%.\n");
  return 0;
}
