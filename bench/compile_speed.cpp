//===- bench/compile_speed.cpp - Compile time (paper §4.5) -------------------===//
//
// Times the *compiler itself* over the Figure 7 suite:
//
//   compile_speed [--out=FILE] [--lat=N] [--affinity]
//
// The default run makes two serial passes, so times are comparable run to
// run (concurrent evaluations contend for cache and memory bandwidth):
//
//  * The timing pass evaluates every suite workload under every strategy
//    at one move latency, on the shared preparations every bench uses, and
//    breaks each evaluation into its pipeline phases (prepare / data
//    partition / RHOP / schedule) from the phase timers of its telemetry
//    shard. It writes BENCH_compile.json (schema gdp-compile-speed-v1);
//    `bench_diff bench/compile_baseline.json BENCH_compile.json
//    --tol=workload_wall_sec:2.0` gates a run against the recorded
//    baseline (CI's bench-regression job). These records are wall-clock
//    and thus machine-dependent (regenerate the baseline when the
//    reference machine changes). Under --json=FILE this pass also writes
//    one harness record per (workload, strategy).
//  * The §4.5 pass: the detailed computation partitioner dominates compile
//    time, and Profile Max runs it twice where GDP and Naive run it once,
//    so Profile Max should cost roughly 2x GDP. The pipeline shares one
//    unlocked RHOP run between Unified, Naive and ProfileMax, and one GDP
//    data partition between the latencies, on one preparation
//    (partition/PartitionTables.h). This table compares algorithmic cost,
//    so each of its cells runs on its own copy of the preparation with
//    fresh tables and pays for its own data partition and RHOP runs.
//
// With --affinity the binary instead runs the concurrent-vs-pinned
// experiment matrix: the full figure-7 evaluation at 1/2/4/8 threads,
// each twice — free-running workers vs. workers pinned to cores — timing
// every cell and byte-comparing the deterministic records across all
// configurations (they must be identical; a mismatch exits 1). The
// default mode's output and schema are untouched, so the CI bench_diff
// gate on gdp-compile-speed-v1 keeps working unchanged. The matrix writes
// no harness records, so --affinity with --json is a usage error.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "partition/PartitionTables.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

using namespace gdp;
using namespace gdp::bench;

namespace {

struct StrategyTiming {
  const char *Name;
  double WallSec = 0;
  double DataPartitionSec = 0;
  double RhopSec = 0;
  double ScheduleSec = 0;
};

struct WorkloadTiming {
  std::string Name;
  double PrepareSec = 0;
  std::vector<StrategyTiming> Strategies;
  double WallSec = 0; ///< PrepareSec + sum of strategy walls.
};

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const StrategyKind Kinds[] = {StrategyKind::Unified, StrategyKind::GDP,
                              StrategyKind::ProfileMax, StrategyKind::Naive};

/// The Figure 7 matrix: every suite workload under every strategy.
std::vector<EvalTask> matrixTasks(const std::vector<SuiteEntry> &Suite,
                                  unsigned Latency) {
  std::vector<EvalTask> Tasks;
  for (const SuiteEntry &E : Suite)
    for (StrategyKind K : Kinds)
      Tasks.push_back({&E, K, Latency});
  return Tasks;
}

std::string jsonDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

std::string renderJson(const std::vector<WorkloadTiming> &Workloads,
                       unsigned Latency, double TotalSec) {
  std::string S = "{\n  \"schema\": \"gdp-compile-speed-v1\",\n";
  S += "  \"move_latency\": " + std::to_string(Latency) + ",\n";
  S += "  \"workloads\": [";
  for (size_t I = 0; I != Workloads.size(); ++I) {
    const WorkloadTiming &W = Workloads[I];
    S += I ? ",\n    {" : "\n    {";
    S += "\n      \"workload\": \"" + W.Name + "\",";
    S += "\n      \"prepare_sec\": " + jsonDouble(W.PrepareSec) + ",";
    S += "\n      \"strategies\": [";
    for (size_t J = 0; J != W.Strategies.size(); ++J) {
      const StrategyTiming &T = W.Strategies[J];
      S += J ? ",\n        {" : "\n        {";
      S += " \"strategy\": \"" + std::string(T.Name) + "\",";
      S += " \"wall_sec\": " + jsonDouble(T.WallSec) + ",";
      S += " \"data_partition_sec\": " + jsonDouble(T.DataPartitionSec) + ",";
      S += " \"rhop_sec\": " + jsonDouble(T.RhopSec) + ",";
      S += " \"schedule_sec\": " + jsonDouble(T.ScheduleSec) + " }";
    }
    S += "\n      ],";
    S += "\n      \"workload_wall_sec\": " + jsonDouble(W.WallSec);
    S += "\n    }";
  }
  S += "\n  ],\n";
  S += "  \"total_wall_sec\": " + jsonDouble(TotalSec) + "\n}\n";
  return S;
}

/// One configuration of the concurrent-vs-affinity experiment.
struct AffinityRun {
  unsigned Threads = 1;
  bool Pinned = false;
  double WallSec = 0;
};

/// `--affinity` mode: times the full figure-7 matrix at several thread
/// counts, free-running vs. pinned, and byte-compares the deterministic
/// records of every configuration against the first. Returns the process
/// exit code.
int runAffinityMatrix(const std::string &OutPath, unsigned Latency) {
  banner("Compile speed: concurrent vs. pinned workers over the Figure 7 "
         "matrix (latency " +
             std::to_string(Latency) + ")",
         "tooling benchmark; not a paper figure");

  auto Suite = loadSuite();
  std::vector<EvalTask> Tasks = matrixTasks(Suite, Latency);

  std::vector<AffinityRun> Runs;
  std::vector<std::string> Reference;
  bool RecordsIdentical = true;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    for (bool Pin : {false, true}) {
      setThreads(Threads);
      support::setThreadAffinity(Pin);
      // Each configuration starts from fresh partition tables, so its wall
      // time does not reuse passes an earlier configuration made.
      for (SuiteEntry &E : Suite)
        E.PP.Tables = std::make_shared<PartitionTables>();
      double Begin = nowSec();
      std::vector<std::string> Records = runMatrixRecords(Tasks);
      AffinityRun Run{Threads, Pin, nowSec() - Begin};
      if (Reference.empty())
        Reference = Records;
      else if (Records != Reference)
        RecordsIdentical = false;
      Runs.push_back(Run);
    }
  }
  support::setThreadAffinity(false);

  TextTable Table({"threads", "concurrent s", "affinity s", "speedup"});
  for (size_t I = 0; I + 1 < Runs.size(); I += 2) {
    const AffinityRun &Free = Runs[I], &Pinned = Runs[I + 1];
    Table.addRow({std::to_string(Free.Threads),
                  formatDouble(Free.WallSec, 3),
                  formatDouble(Pinned.WallSec, 3),
                  formatDouble(Pinned.WallSec > 0
                                   ? Free.WallSec / Pinned.WallSec
                                   : 0.0,
                               3)});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("records byte-identical across all configurations: %s\n\n",
              RecordsIdentical ? "yes" : "NO (determinism violation)");

  std::string Json = "{\n  \"schema\": \"gdp-compile-affinity-v1\",\n";
  Json += "  \"move_latency\": " + std::to_string(Latency) + ",\n";
  Json += "  \"runs\": [";
  for (size_t I = 0; I != Runs.size(); ++I) {
    Json += I ? ",\n    {" : "\n    {";
    Json += " \"threads\": " + std::to_string(Runs[I].Threads) + ",";
    Json += std::string(" \"affinity\": ") +
            (Runs[I].Pinned ? "true," : "false,");
    Json += " \"total_wall_sec\": " + jsonDouble(Runs[I].WallSec) + " }";
  }
  Json += "\n  ],\n";
  Json += std::string("  \"records_identical\": ") +
          (RecordsIdentical ? "true" : "false") + "\n}\n";
  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << Json;
  std::printf("wrote %s\n", OutPath.c_str());
  return RecordsIdentical ? 0 : 1;
}

/// The §4.5 pass (see the file comment): GDP, ProfileMax and Naive
/// partitioning time (data partition + RHOP) per workload. It writes no
/// --json records: the timing pass already wrote one under each cell's key.
void printCompileTimeTable(const std::vector<SuiteEntry> &Suite,
                           unsigned Latency) {
  const StrategyKind TableKinds[] = {StrategyKind::GDP,
                                     StrategyKind::ProfileMax,
                                     StrategyKind::Naive};
  // Reserved up front: the cells point into this vector.
  std::vector<PreparedProgram> Unshared;
  Unshared.reserve(Suite.size() * std::size(TableKinds));
  std::vector<EvalCell> Cells;
  for (const SuiteEntry &E : Suite)
    for (StrategyKind K : TableKinds) {
      Unshared.push_back(E.PP);
      Unshared.back().Tables = std::make_shared<PartitionTables>();
      EvalCell &C = Cells.emplace_back();
      C.PP = &Unshared.back();
      C.Opt.Strategy = K;
      C.Opt.MoveLatency = Latency;
      C.Scope = E.Name + "|" + strategyName(K) + "|lat" +
                std::to_string(Latency);
    }
  std::vector<CellResult> Results =
      evaluateCells(Cells, /*Threads=*/1, support::FaultPlan::fromEnv());

  TextTable Table({"benchmark", "GDP ms", "ProfileMax ms", "Naive ms",
                   "PM/GDP ratio"});
  auto AddRow = [&Table](const std::string &Name, double GDP, double PM,
                         double Naive) {
    Table.addRow({Name, formatDouble(GDP * 1e3, 2), formatDouble(PM * 1e3, 2),
                  formatDouble(Naive * 1e3, 2),
                  formatDouble(PM / std::max(1e-9, GDP), 2)});
  };
  double GDPTotal = 0, PMTotal = 0, NaiveTotal = 0;
  size_t Next = 0;
  for (const SuiteEntry &E : Suite) {
    double GDP = partitionSeconds(Results[Next++].Shard->stats());
    double PM = partitionSeconds(Results[Next++].Shard->stats());
    double Naive = partitionSeconds(Results[Next++].Shard->stats());
    GDPTotal += GDP;
    PMTotal += PM;
    NaiveTotal += Naive;
    AddRow(E.Name, GDP, PM, Naive);
  }
  AddRow("total", GDPTotal, PMTotal, NaiveTotal);
  std::printf("Section 4.5: partitioning time (data partition + RHOP) per "
              "strategy, each cell\npaying for its own data partition and "
              "RHOP runs:\n%s\n",
              Table.render().c_str());
  std::printf("Paper shape: Profile Max is two complete runs of the detailed "
              "computation\npartitioner, so its compile time is roughly twice "
              "GDP's (which, like Naive,\nneeds only one run).\n\n");
}

} // namespace

int main(int argc, char **argv) {
  // Detect the experiment-mode flag before initBench strips and resolves
  // it (bare --affinity / --affinity=on switch modes; --affinity=off just
  // leaves pinning off in the default mode).
  bool AffinityFlagGiven = false;
  for (int I = 1; I < argc; ++I)
    if (std::strncmp(argv[I], "--affinity", 10) == 0)
      AffinityFlagGiven = true;
  initBench(argc, argv);
  bool AffinityMode = AffinityFlagGiven && affinity();

  std::string OutPath = AffinityMode ? "BENCH_affinity.json"
                                     : "BENCH_compile.json";
  unsigned Latency = 5;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    bool Ok = true;
    if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else if (Arg.rfind("--lat=", 0) == 0)
      Ok = parsePositive(Arg.substr(6), Latency);
    else
      Ok = false;
    if (!Ok)
      usageError(Arg, "compile_speed [--out=FILE] [--lat=N] [--affinity]");
  }

  // The affinity matrix times through runMatrixRecords, which keeps no
  // harness record: its --json file would hold none.
  if (AffinityMode && jsonEnabled())
    usageError("--json", "compile_speed [--out=FILE] [--lat=N] [--affinity] "
                         "(--json only without --affinity)");
  if (AffinityMode)
    return runAffinityMatrix(OutPath, Latency);

  banner("Compile time: pipeline wall-clock over the Figure 7 matrix "
         "(all workloads x strategies, latency " +
             std::to_string(Latency) + ", serial)",
         "Chu & Mahlke, CGO'06, §4.5; also the CI compile-time gate");

  setThreads(1);
  auto Suite = loadSuite();
  std::vector<CellResult> Evals = runMatrix(matrixTasks(Suite, Latency));

  // Each evaluation's wall clock (its pipeline.strategy span) and phase
  // times come from its own telemetry shard.
  std::vector<WorkloadTiming> Workloads;
  double TotalSec = 0;
  size_t Next = 0;
  for (const SuiteEntry &E : Suite) {
    WorkloadTiming W;
    W.Name = E.Name;
    W.PrepareSec = E.PP.PrepareSeconds;
    for (StrategyKind K : Kinds) {
      const telemetry::StatsRegistry &Stats = Evals[Next++].Shard->stats();
      StrategyTiming T;
      T.Name = strategyName(K);
      T.WallSec = Stats.getTime("pipeline.strategy");
      T.DataPartitionSec = Stats.getTime("pipeline.data_partition");
      T.RhopSec = Stats.getTime("pipeline.rhop");
      T.ScheduleSec = Stats.getTime("pipeline.schedule");
      W.WallSec += T.WallSec;
      W.Strategies.push_back(T);
    }
    W.WallSec += W.PrepareSec;
    TotalSec += W.WallSec;
    Workloads.push_back(std::move(W));
  }

  TextTable Table({"benchmark", "prepare ms", "partition ms", "rhop ms",
                   "schedule ms", "total ms"});
  for (const WorkloadTiming &W : Workloads) {
    double Partition = 0, Rhop = 0, Schedule = 0;
    for (const StrategyTiming &T : W.Strategies) {
      Partition += T.DataPartitionSec;
      Rhop += T.RhopSec;
      Schedule += T.ScheduleSec;
    }
    Table.addRow({W.Name, formatDouble(W.PrepareSec * 1e3, 2),
                  formatDouble(Partition * 1e3, 2),
                  formatDouble(Rhop * 1e3, 2),
                  formatDouble(Schedule * 1e3, 2),
                  formatDouble(W.WallSec * 1e3, 2)});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("full-matrix wall-clock: %.3f s\n\n", TotalSec);
  printCompileTimeTable(Suite, Latency);

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << renderJson(Workloads, Latency, TotalSec);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
