//===- bench/fig78_sim.cpp - Figures 7/8 from simulated cycles ---------------===//
//
// The dynamic cross-check of Figures 7/8: every (benchmark, strategy)
// point is evaluated twice — the static profile-weighted schedule estimate
// (what fig7/fig8a/fig8b report) and the trace-driven cycle simulation
// (sim/Simulator.h), which replays the profiling run's block trace through
// the same schedules with a live interconnect and home-cluster memory
// rules. The relative-performance table is recomputed from simulated
// cycles next to the static numbers, so every headline speedup claim is
// backed by a dynamic measurement.
//
// Usage: fig78_sim [--lat=N] [--json=FILE] [--threads=N] [--deterministic]
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <algorithm>
#include <cstdio>

using namespace gdp;
using namespace gdp::bench;

int main(int argc, char **argv) {
  initBench(argc, argv);
  unsigned MoveLatency = 5;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--lat=", 0) != 0 ||
        !parsePositive(Arg.substr(6), MoveLatency))
      usageError(Arg, "fig78_sim [--lat=N] [--json=FILE] [--threads=N] "
                      "[--deterministic]");
  }

  banner("Figures 7/8 (simulated): relative performance from trace-driven "
         "dynamic cycles (move latency " +
             std::to_string(MoveLatency) + ")",
         "Chu & Mahlke, CGO'06, Figures 7/8 — dynamic cross-check");

  auto Suite = loadSuite(/*CaptureTraces=*/true);

  std::vector<EvalTask> Tasks;
  for (const SuiteEntry &E : Suite)
    for (StrategyKind K : {StrategyKind::Unified, StrategyKind::GDP,
                           StrategyKind::ProfileMax, StrategyKind::Naive})
      Tasks.push_back({&E, K, MoveLatency});
  std::vector<CellResult> Evals = runSimMatrix(Tasks);

  TextTable Table({"benchmark", "GDP static", "GDP sim", "PM static",
                   "PM sim", "sim/static max"});
  Stats GDPStat, GDPSim, PMStat, PMSim, NaiveStat, NaiveSim;

  size_t Next = 0;
  for (const SuiteEntry &E : Suite) {
    const CellResult &U = Evals[Next++];
    const CellResult &G = Evals[Next++];
    const CellResult &P = Evals[Next++];
    const CellResult &N = Evals[Next++];
    double GDPRelStat = relativePerf(U.R.Cycles, G.R.Cycles);
    double GDPRelSim = relativePerf(U.S.Cycles, G.S.Cycles);
    double PMRelStat = relativePerf(U.R.Cycles, P.R.Cycles);
    double PMRelSim = relativePerf(U.S.Cycles, P.S.Cycles);
    GDPStat.add(GDPRelStat);
    GDPSim.add(GDPRelSim);
    PMStat.add(PMRelStat);
    PMSim.add(PMRelSim);
    NaiveStat.add(relativePerf(U.R.Cycles, N.R.Cycles));
    NaiveSim.add(relativePerf(U.S.Cycles, N.S.Cycles));
    double MaxRatio = 0;
    for (const CellResult *EV : {&U, &G, &P, &N})
      MaxRatio = std::max(MaxRatio, static_cast<double>(EV->S.Cycles) /
                                        static_cast<double>(EV->R.Cycles));
    Table.addRow({E.Name, formatPercent(GDPRelStat),
                  formatPercent(GDPRelSim), formatPercent(PMRelStat),
                  formatPercent(PMRelSim), formatDouble(MaxRatio, 3)});
  }
  Table.addRow({"average", formatPercent(GDPStat.mean()),
                formatPercent(GDPSim.mean()), formatPercent(PMStat.mean()),
                formatPercent(PMSim.mean()), ""});
  std::printf("%s\n", Table.render().c_str());
  std::printf("Naive average: static %s, simulated %s\n\n",
              formatPercent(NaiveStat.mean()).c_str(),
              formatPercent(NaiveSim.mean()).c_str());
  std::printf(
      "Every simulated cycle count is >= its static estimate (blocks replay\n"
      "back to back at their scheduled length, plus dynamic bus/port/remote\n"
      "costs); sim/static max is the largest such ratio across the four\n"
      "strategies. The strategy ordering of the static figures is preserved\n"
      "under simulation (tested in tests/SimTests.cpp).\n");
  return 0;
}
