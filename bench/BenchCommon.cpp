//===- bench/BenchCommon.cpp - Shared experiment harness ---------------------===//

#include "bench/BenchCommon.h"

#include "partition/PreparedCache.h"
#include "support/FaultInjector.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace gdp;
using namespace gdp::bench;
using gdp::support::json::escape;

namespace {

std::string JsonPath;
std::vector<std::string> JsonRecords;
unsigned NumThreads = 0; // 0 = not yet resolved (env default).
bool DeterministicFlag = false;

/// Writes the accumulated records as {"schema":...,"records":[...]}.
/// Atomic (temp file + rename) so a concurrent reader never sees a
/// half-written file.
void flushJson() {
  if (JsonPath.empty())
    return;
  std::string Body = "{\n  \"schema\": \"gdp-bench-v1\",\n  \"records\": [";
  for (size_t I = 0; I != JsonRecords.size(); ++I) {
    Body += I ? ",\n    " : "\n    ";
    Body += JsonRecords[I];
  }
  Body += "\n  ]\n}\n";
  std::string Tmp = JsonPath + ".tmp";
  {
    std::ofstream Out(Tmp);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Tmp.c_str());
      return;
    }
    Out << Body;
  }
  if (std::rename(Tmp.c_str(), JsonPath.c_str()) != 0)
    std::fprintf(stderr, "error: cannot rename '%s' to '%s'\n", Tmp.c_str(),
                 JsonPath.c_str());
}

/// The machine-configuration sub-object of a --json record, so sim-vs-
/// static comparisons are self-describing. Reconstructed from the same
/// defaults the evaluation used (machineFor(): the paper's 2-cluster
/// machine). The memory organization is the strategy's: only Unified
/// assumes one shared memory.
std::string machineJson(const std::string &Strategy, unsigned MoveLatency) {
  MachineModel MM = MachineModel::makeDefault(2, MoveLatency);
  const ClusterConfig &C = MM.getCluster(0);
  return formatStr(
      "\"machine\": {\"clusters\": %u, \"fu_per_cluster\": {\"int\": %u, "
      "\"float\": %u, \"mem\": %u, \"branch\": %u}, \"move_latency\": %u, "
      "\"move_bandwidth\": %u, \"memory\": \"%s\", "
      "\"cluster_memory_bytes\": %llu}",
      MM.getNumClusters(), C.NumInteger, C.NumFloat, C.NumMemory,
      C.NumBranch, MM.getMoveLatency(), MM.getMoveBandwidth(),
      Strategy == "Unified" ? "unified" : "partitioned",
      static_cast<unsigned long long>(MM.getClusterMemoryBytes()));
}

/// Test override for the per-cell fault plan (setFaultPlanForTesting).
const support::FaultPlan *FaultPlanOverride = nullptr;

/// The plan every per-cell scope installs: the test override when set,
/// else the process-wide GDP_FAULTS plan.
const support::FaultPlan *benchFaultPlan() {
  return FaultPlanOverride ? FaultPlanOverride
                           : support::FaultPlan::fromEnv();
}

/// The fault-scope name of one matrix cell ("bench|Strategy|latN"). One
/// scope per cell means an injected fault fires in exactly the same cells
/// at any thread count (the determinism contract in
/// support/FaultInjector.h), and a `@filter` rule can single a cell out.
std::string cellName(const EvalTask &T) {
  return T.Entry->Name + "|" + strategyName(T.Strategy) + "|lat" +
         std::to_string(T.MoveLatency);
}

/// Evaluates \p Tasks through the driver on threads() threads, each cell
/// under its own fault scope.
std::vector<CellResult> evaluate(const std::vector<EvalTask> &Tasks,
                                 bool Simulate) {
  std::vector<EvalCell> Cells(Tasks.size());
  for (size_t I = 0; I != Tasks.size(); ++I) {
    Cells[I].PP = &Tasks[I].Entry->PP;
    Cells[I].Opt.Strategy = Tasks[I].Strategy;
    Cells[I].Opt.MoveLatency = Tasks[I].MoveLatency;
    Cells[I].Scope = cellName(Tasks[I]);
  }
  return evaluateCells(Cells, threads(), benchFaultPlan(), Simulate);
}

/// The --json record of one evaluated task.
std::string taskRecord(const EvalTask &T, const CellResult &E,
                       bool Deterministic) {
  return formatRecord(T.Entry->Name, strategyName(T.Strategy), T.MoveLatency,
                      E.R, T.Entry->PP.PrepareSeconds, *E.Shard,
                      Deterministic);
}

/// The --json record of one evaluated and simulated task.
std::string taskSimRecord(const EvalTask &T, const CellResult &E) {
  return formatSimRecord(T.Entry->Name, strategyName(T.Strategy),
                         T.MoveLatency, E.R, E.S);
}

/// The conditional robustness tail of a --json record: empty for a clean
/// run (existing records stay byte-identical), status/effective-strategy/
/// fallbacks/diags when the evaluation degraded or failed.
std::string statusFieldsJson(const PipelineResult &R) {
  if (!R.Failed && !R.Degraded)
    return "";
  return formatStr(", \"status\": \"%s\", \"requested_strategy\": \"%s\", "
                   "\"effective_strategy\": \"%s\", \"fallbacks\": %u, "
                   "\"diags\": %s",
                   R.Failed ? "failed" : "degraded",
                   strategyName(R.RequestedStrategy),
                   strategyName(R.EffectiveStrategy), R.Fallbacks,
                   support::diagsToJson(R.Diags).c_str());
}

} // namespace

void gdp::bench::initBench(int &argc, char **argv) {
  int Out = 1;
  std::string AffinityValue; // Empty = flag absent (environment decides).
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--json=", 0) == 0) {
      JsonPath = Arg.substr(7);
    } else if (Arg.rfind("--threads=", 0) == 0) {
      unsigned N = 0;
      if (!parsePositive(Arg.substr(10), N) || N > support::MaxThreads)
        usageError(Arg, formatStr("--threads=N with N in [1, %u]",
                                  support::MaxThreads));
      setThreads(N);
    } else if (Arg == "--affinity") {
      AffinityValue = "1";
    } else if (Arg.rfind("--affinity=", 0) == 0) {
      AffinityValue = Arg.substr(11);
      if (AffinityValue.empty())
        AffinityValue = "1";
    } else if (Arg == "--deterministic") {
      DeterministicFlag = true;
    } else {
      argv[Out++] = argv[I];
    }
  }
  argc = Out;
  argv[argc] = nullptr;
  // Resolve worker pinning (--affinity beats GDP_AFFINITY). An unparsable
  // value is a structured usage error, exit code 2 like every other bad
  // configuration input.
  std::string Err;
  if (!support::resolveThreadAffinity(AffinityValue, &Err)) {
    std::fprintf(stderr, "%s\n",
                 support::errorDiag(support::StatusCode::UsageError,
                                    "bench.affinity", Err)
                     .render()
                     .c_str());
    std::exit(2);
  }
  if (!JsonPath.empty())
    std::atexit(flushJson);
}

void gdp::bench::expectNoArgs(int argc, char **argv) {
  if (argc < 2)
    return;
  const char *Slash = std::strrchr(argv[0], '/');
  usageError(argv[1], std::string(Slash ? Slash + 1 : argv[0]) +
                          " [--json=FILE] [--threads=N] [--deterministic] "
                          "[--affinity[=V]]");
}

void gdp::bench::usageError(const std::string &Arg, const std::string &Usage) {
  std::fprintf(stderr, "error: bad argument '%s'\nusage: %s\n", Arg.c_str(),
               Usage.c_str());
  JsonPath.clear(); // A rejected run leaves any existing --json file alone.
  std::exit(1);
}

bool gdp::bench::affinity() { return support::threadAffinityEnabled(); }

bool gdp::bench::jsonEnabled() { return !JsonPath.empty(); }

unsigned gdp::bench::threads() {
  if (NumThreads == 0)
    NumThreads = support::threadCountFromEnv();
  return NumThreads;
}

void gdp::bench::setThreads(unsigned N) { NumThreads = N ? N : 1; }

void gdp::bench::setFaultPlanForTesting(const support::FaultPlan *Plan) {
  FaultPlanOverride = Plan;
}

bool gdp::bench::deterministicRecords() { return DeterministicFlag; }

std::string gdp::bench::formatRecord(
    const std::string &Benchmark, const std::string &Strategy,
    unsigned MoveLatency, const PipelineResult &R, double PrepareSeconds,
    const telemetry::TelemetrySession &Shard, bool Deterministic) {
  const telemetry::StatsRegistry &Stats = Shard.stats();
  std::string Rec = formatStr(
      "{\"benchmark\": \"%s\", \"strategy\": \"%s\", "
      "\"move_latency\": %u, %s, \"cycles\": %llu, \"dynamic_moves\": %llu, "
      "\"static_moves\": %llu, \"rhop_runs\": %u, "
      "\"prepare_sec\": %.9g, \"data_partition_sec\": %.9g, "
      "\"rhop_sec\": %.9g, \"schedule_sec\": %.9g",
      escape(Benchmark).c_str(), escape(Strategy).c_str(), MoveLatency,
      machineJson(Strategy, MoveLatency).c_str(),
      static_cast<unsigned long long>(R.Cycles),
      static_cast<unsigned long long>(R.DynamicMoves),
      static_cast<unsigned long long>(R.StaticMoves), R.RHOPRuns,
      Deterministic ? 0.0 : PrepareSeconds,
      Deterministic ? 0.0 : Stats.getTime("pipeline.data_partition"),
      Deterministic ? 0.0 : Stats.getTime("pipeline.rhop"),
      Deterministic ? 0.0 : Stats.getTime("pipeline.schedule"));
  Rec += statusFieldsJson(R);
  Rec += ", \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Stats.counterSnapshot()) {
    Rec += formatStr("%s\"%s\": %llu", First ? "" : ", ",
                     escape(Name).c_str(),
                     static_cast<unsigned long long>(Value));
    First = false;
  }
  Rec += "}}";
  return Rec;
}

std::string gdp::bench::formatExhaustiveRecord(const std::string &Benchmark,
                                               unsigned MoveLatency,
                                               const ExhaustiveResult &R) {
  if (!R.Ok)
    return formatStr("{\"benchmark\": \"%s\", \"strategy\": \"Exhaustive\", "
                     "\"move_latency\": %u, \"status\": \"failed\", "
                     "\"diags\": %s}",
                     escape(Benchmark).c_str(), MoveLatency,
                     support::diagsToJson(R.Diags).c_str());
  std::string Rec = formatStr(
      "{\"benchmark\": \"%s\", \"strategy\": \"Exhaustive\", "
      "\"move_latency\": %u, \"cycles\": %llu, \"exhaustive\": "
      "{\"num_points\": %zu, \"best_cycles\": %llu, \"worst_cycles\": %llu, "
      "\"best_mask\": %llu, \"worst_mask\": %llu, \"gdp_mask\": %llu, "
      "\"profilemax_mask\": %llu}",
      escape(Benchmark).c_str(), MoveLatency,
      static_cast<unsigned long long>(R.BestCycles), R.Points.size(),
      static_cast<unsigned long long>(R.BestCycles),
      static_cast<unsigned long long>(R.WorstCycles),
      static_cast<unsigned long long>(R.BestMask),
      static_cast<unsigned long long>(R.WorstMask),
      static_cast<unsigned long long>(R.GDPMask),
      static_cast<unsigned long long>(R.ProfileMaxMask));
  if (R.BudgetExhausted)
    Rec += formatStr(", \"status\": \"budget_exhausted\", "
                     "\"evaluated_points\": %llu, \"diags\": %s",
                     static_cast<unsigned long long>(R.EvaluatedPoints),
                     support::diagsToJson(R.Diags).c_str());
  Rec += "}";
  return Rec;
}

void gdp::bench::recordExhaustive(const std::string &Benchmark,
                                  unsigned MoveLatency,
                                  const ExhaustiveResult &R) {
  if (!jsonEnabled())
    return;
  JsonRecords.push_back(formatExhaustiveRecord(Benchmark, MoveLatency, R));
}

std::vector<SuiteEntry> gdp::bench::loadSuite(bool CaptureTraces) {
  std::vector<const WorkloadInfo *> Infos;
  for (const WorkloadInfo &W : allWorkloads()) {
    if (W.Suite == "extra")
      continue; // The benches reproduce the paper's 16-benchmark suite.
    Infos.push_back(&W);
  }
  support::ThreadPool Pool(threads() - 1);
  std::vector<SuiteEntry> Suite =
      Pool.parallelMap(Infos, [CaptureTraces](const WorkloadInfo *W) {
        SuiteEntry E;
        E.Name = W->Name;
        std::shared_ptr<const CachedPreparation> C =
            PreparedProgramCache::global().get(
                W->Name, CaptureTraces,
                [W](std::vector<support::Diag> &) { return W->Build(); });
        E.P = C->Prog;
        E.PP = C->PP;
        return E;
      });
  for (const SuiteEntry &E : Suite)
    if (!E.PP.Ok) {
      std::fprintf(stderr, "failed to prepare %s: %s\n", E.Name.c_str(),
                   E.PP.Error.c_str());
      std::exit(1);
    }
  return Suite;
}

PipelineResult gdp::bench::run(const SuiteEntry &Entry,
                               StrategyKind Strategy,
                               unsigned MoveLatency) {
  return std::move(runMatrix({{&Entry, Strategy, MoveLatency}}).front().R);
}

std::vector<CellResult>
gdp::bench::runMatrix(const std::vector<EvalTask> &Tasks) {
  std::vector<CellResult> Evals = evaluate(Tasks, /*Simulate=*/false);
  // Records append on this thread, in input order: the file is identical
  // to a serial run's.
  if (jsonEnabled())
    for (size_t I = 0; I != Tasks.size(); ++I)
      JsonRecords.push_back(
          taskRecord(Tasks[I], Evals[I], deterministicRecords()));
  return Evals;
}

std::vector<std::string>
gdp::bench::runMatrixRecords(const std::vector<EvalTask> &Tasks) {
  std::vector<CellResult> Evals = evaluate(Tasks, /*Simulate=*/false);
  std::vector<std::string> Records;
  Records.reserve(Tasks.size());
  for (size_t I = 0; I != Tasks.size(); ++I)
    Records.push_back(
        taskRecord(Tasks[I], Evals[I], /*Deterministic=*/true));
  return Records;
}

std::string gdp::bench::formatSimRecord(const std::string &Benchmark,
                                        const std::string &Strategy,
                                        unsigned MoveLatency,
                                        const PipelineResult &R,
                                        const SimResult &S) {
  if (!S.Ok) {
    // Failed cell: a short record that still names the cell, so the rest
    // of the matrix file stays usable and the failure is attributable.
    std::vector<support::Diag> All = R.Diags;
    All.insert(All.end(), S.Diags.begin(), S.Diags.end());
    return formatStr("{\"benchmark\": \"%s\", \"strategy\": \"%s\", "
                     "\"move_latency\": %u, \"status\": \"failed\", "
                     "\"diags\": %s}",
                     escape(Benchmark).c_str(), escape(Strategy).c_str(),
                     MoveLatency, support::diagsToJson(All).c_str());
  }
  std::string Rec = formatStr(
      "{\"benchmark\": \"%s\", \"strategy\": \"%s\", "
      "\"move_latency\": %u, %s, \"cycles\": %llu, \"sim_cycles\": %llu, "
      "\"sim_block_execs\": %llu, \"sim_bus_transfers\": %llu, "
      "\"sim_hoisted_transfers\": %llu, \"sim_remote_accesses\": %llu, "
      "\"sim_local_accesses\": %llu, "
      "\"sim_stall_bus_contention\": %llu, "
      "\"sim_stall_move_latency\": %llu, \"sim_stall_mem_port\": %llu, "
      "\"sim_cluster_utilization\": [",
      escape(Benchmark).c_str(), escape(Strategy).c_str(), MoveLatency,
      machineJson(Strategy, MoveLatency).c_str(),
      static_cast<unsigned long long>(R.Cycles),
      static_cast<unsigned long long>(S.Cycles),
      static_cast<unsigned long long>(S.BlockExecs),
      static_cast<unsigned long long>(S.BusTransfers),
      static_cast<unsigned long long>(S.HoistedTransfers),
      static_cast<unsigned long long>(S.RemoteAccesses),
      static_cast<unsigned long long>(S.LocalAccesses),
      static_cast<unsigned long long>(S.BusContentionStallCycles),
      static_cast<unsigned long long>(S.MoveLatencyStallCycles),
      static_cast<unsigned long long>(S.MemPortStallCycles));
  for (size_t C = 0; C != S.ClusterUtilization.size(); ++C)
    Rec += formatStr("%s%.6f", C ? ", " : "", S.ClusterUtilization[C]);
  Rec += "]";
  Rec += statusFieldsJson(R);
  Rec += "}";
  return Rec;
}

std::vector<CellResult>
gdp::bench::runSimMatrix(const std::vector<EvalTask> &Tasks) {
  std::vector<CellResult> Evals = evaluate(Tasks, /*Simulate=*/true);
  for (size_t I = 0; I != Tasks.size(); ++I) {
    const EvalTask &T = Tasks[I];
    if (!Evals[I].S.Ok)
      std::fprintf(stderr, "simulation of %s/%s failed: %s\n",
                   T.Entry->Name.c_str(), strategyName(T.Strategy),
                   Evals[I].S.Error.c_str());
    if (jsonEnabled())
      JsonRecords.push_back(taskSimRecord(T, Evals[I]));
  }
  return Evals;
}

std::vector<std::string>
gdp::bench::runSimMatrixRecords(const std::vector<EvalTask> &Tasks) {
  std::vector<CellResult> Evals = runSimMatrix(Tasks);
  std::vector<std::string> Records;
  Records.reserve(Tasks.size());
  for (size_t I = 0; I != Tasks.size(); ++I)
    Records.push_back(taskSimRecord(Tasks[I], Evals[I]));
  return Records;
}

double gdp::bench::relativePerf(uint64_t BaselineCycles, uint64_t Cycles) {
  if (Cycles == 0)
    return 0.0;
  return static_cast<double>(BaselineCycles) / static_cast<double>(Cycles);
}

void gdp::bench::banner(const std::string &Title,
                        const std::string &PaperRef) {
  std::printf("==================================================================\n");
  std::printf("%s\n", Title.c_str());
  std::printf("Reproduces: %s\n", PaperRef.c_str());
  std::printf("==================================================================\n");
}
