//===- bench/compile_speed.cpp - Compile-time (tool speed) benchmark ----------===//
//
// Times the *compiler itself* over the full Figure 7 matrix — every suite
// workload under every strategy at one move latency — and breaks each
// evaluation into its pipeline phases (prepare / data partition / RHOP /
// schedule) from the phase timers of the evaluation's telemetry shard.
// Emits a machine-readable BENCH_compile.json (schema
// gdp-compile-speed-v1):
//
//   compile_speed [--out=FILE] [--lat=N] [--affinity]
//
// `bench_diff bench/compile_baseline.json BENCH_compile.json
// --tol=workload_wall_sec:2.0` gates a run against the recorded baseline
// (CI's bench-regression job). The timing loop is strictly serial so phase
// numbers are comparable run to run; records in the JSON are wall-clock
// and thus machine-dependent (regenerate the baseline when the reference
// machine changes).
//
// With --affinity the binary instead runs the concurrent-vs-pinned
// experiment matrix: the full figure-7 evaluation at 1/2/4/8 threads,
// each twice — free-running workers vs. workers pinned to cores — timing
// every cell and byte-comparing the deterministic records across all
// configurations (they must be identical; a mismatch exits 1). The
// default mode's output and schema are untouched, so the CI bench_diff
// gate on gdp-compile-speed-v1 keeps working unchanged.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "partition/UnlockedRHOP.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
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
      // Each configuration starts from empty unlocked-RHOP tables, so its
      // wall time does not reuse RHOP runs an earlier configuration made.
      for (SuiteEntry &E : Suite)
        E.PP.Unlocked = std::make_shared<UnlockedRHOPTable>();
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
    if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else if (Arg.rfind("--lat=", 0) == 0)
      Latency = static_cast<unsigned>(std::atoi(Arg.c_str() + 6));
    else {
      std::fprintf(stderr,
                   "usage: compile_speed [--out=FILE] [--lat=N] "
                   "[--affinity]\n");
      return 1;
    }
  }

  if (AffinityMode)
    return runAffinityMatrix(OutPath, Latency);

  banner("Compile speed: pipeline wall-clock over the Figure 7 matrix "
         "(all workloads x strategies, latency " +
             std::to_string(Latency) + ", serial)",
         "tooling benchmark; not a paper figure");

  // Serial on purpose: phase timings of concurrent evaluations contend for
  // cache and memory bandwidth and are not comparable run to run.
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

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << renderJson(Workloads, Latency, TotalSec);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
