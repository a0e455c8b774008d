//===- bench/tab_compile_time.cpp - Paper §4.5 ---------------------------------===//
//
// Compile-time comparison (paper §4.5): the detailed computation
// partitioner dominates compile time; Profile Max runs it twice, GDP and
// Naive once, so Profile Max should cost roughly 2× GDP. The table reports
// measured wall-clock partitioning time per strategy over the suite, and a
// google-benchmark section times the individual partitioning passes.
//
// The pipeline shares one unlocked RHOP run between Unified, Naive and
// ProfileMax on the same preparation (partition/UnlockedRHOP.h). This
// table compares algorithmic cost, so every evaluation runs on its own
// copy of the preparation with an empty table and pays for its own runs.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "partition/UnlockedRHOP.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <iterator>

using namespace gdp;
using namespace gdp::bench;

namespace {

const std::vector<SuiteEntry> &suite() {
  static std::vector<SuiteEntry> Suite = loadSuite();
  return Suite;
}

/// \p E with an empty unlocked-RHOP table, so nothing evaluated on it
/// reuses a run made elsewhere.
SuiteEntry unshared(const SuiteEntry &E) {
  SuiteEntry Copy = E;
  Copy.PP.Unlocked = std::make_shared<UnlockedRHOPTable>();
  return Copy;
}

void BM_Strategy(benchmark::State &State, const SuiteEntry *Entry,
                 StrategyKind Strategy) {
  SuiteEntry Cell = *Entry;
  for (auto _ : State) {
    Cell.PP.Unlocked = std::make_shared<UnlockedRHOPTable>();
    PipelineResult R = run(Cell, Strategy, 5);
    benchmark::DoNotOptimize(R.Cycles);
  }
}

} // namespace

int main(int argc, char **argv) {
  initBench(argc, argv);
  banner("Section 4.5: compile time of the partitioning strategies",
         "Chu & Mahlke, CGO'06, §4.5");

  // --- Aggregate table: partitioning seconds and detailed-partitioner runs.
  TextTable Table({"benchmark", "GDP ms", "ProfileMax ms", "Naive ms",
                   "PM/GDP ratio"});
  TextTable Phases({"benchmark", "prepare ms", "data-part ms", "RHOP ms",
                    "schedule ms"});
  double GDPTotal = 0, PMTotal = 0, NaiveTotal = 0;

  // The full (benchmark × strategy) matrix evaluates concurrently under
  // --threads/GDP_THREADS; wall clock of the whole matrix is reported
  // below (EXPERIMENTS.md tracks the speedup over --threads=1).
  const StrategyKind Kinds[] = {StrategyKind::GDP, StrategyKind::ProfileMax,
                                StrategyKind::Naive};
  std::vector<SuiteEntry> Cells;
  Cells.reserve(suite().size() * std::size(Kinds));
  std::vector<EvalTask> Tasks;
  for (const SuiteEntry &E : suite())
    for (StrategyKind K : Kinds) {
      Cells.push_back(unshared(E));
      Tasks.push_back({&Cells.back(), K, 5});
    }
  auto MatrixStart = std::chrono::steady_clock::now();
  std::vector<PipelineResult> Results = runMatrix(Tasks);
  double MatrixSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - MatrixStart)
                             .count();

  size_t Next = 0;
  for (const SuiteEntry &E : suite()) {
    PipelineResult G = Results[Next++];
    PipelineResult PM = Results[Next++];
    PipelineResult N = Results[Next++];
    GDPTotal += G.PartitionSeconds;
    PMTotal += PM.PartitionSeconds;
    NaiveTotal += N.PartitionSeconds;
    Table.addRow({E.Name, formatDouble(G.PartitionSeconds * 1e3, 2),
                  formatDouble(PM.PartitionSeconds * 1e3, 2),
                  formatDouble(N.PartitionSeconds * 1e3, 2),
                  formatDouble(PM.PartitionSeconds /
                                   std::max(1e-9, G.PartitionSeconds),
                               2)});
    Phases.addRow({E.Name, formatDouble(G.Phases.PrepareSeconds * 1e3, 2),
                   formatDouble(G.Phases.DataPartitionSeconds * 1e3, 2),
                   formatDouble(G.Phases.RhopSeconds * 1e3, 2),
                   formatDouble(G.Phases.ScheduleSeconds * 1e3, 2)});
  }
  Table.addRow({"total", formatDouble(GDPTotal * 1e3, 2),
                formatDouble(PMTotal * 1e3, 2),
                formatDouble(NaiveTotal * 1e3, 2),
                formatDouble(PMTotal / std::max(1e-9, GDPTotal), 2)});
  std::printf("%s\n", Table.render().c_str());
  std::printf("matrix wall clock: %zu pipeline runs on %u thread(s) in "
              "%.3f s\n\n",
              Tasks.size(), threads(), MatrixSeconds);
  std::printf("Paper shape: Profile Max is two complete runs of the detailed "
              "computation\npartitioner, so its compile time is roughly twice "
              "GDP's (which, like Naive,\nneeds only one run).\n\n");
  std::printf("Per-phase wall clock under GDP (preparation is shared by all "
              "strategies):\n%s\n",
              Phases.render().c_str());

  // --- google-benchmark timings on representative benchmarks.
  for (const SuiteEntry &E : suite()) {
    if (E.Name != "rawcaudio" && E.Name != "mpeg2enc" && E.Name != "fft")
      continue;
    for (auto [Kind, Label] :
         {std::pair{StrategyKind::GDP, "GDP"},
          std::pair{StrategyKind::ProfileMax, "ProfileMax"},
          std::pair{StrategyKind::Naive, "Naive"}})
      benchmark::RegisterBenchmark((E.Name + "/" + Label).c_str(),
                                   BM_Strategy, &E, Kind)
          ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
