//===- tools/gdptool.cpp - Command-line driver ---------------------------------===//
//
// The standalone driver: load a program (a bundled workload or a textual IR
// file), run one or all partitioning strategies on a configurable machine,
// and print reports — cycles, intercluster traffic, the data placement, the
// per-cluster distribution, or the IR itself.
//
// Usage:
//   gdptool list
//   gdptool print   <workload|file.gdp> [--init]
//   gdptool profile <workload|file.gdp>
//   gdptool run     <workload|file.gdp> [--strategy=gdp|profilemax|naive|
//                   unified|all] [--latency=N] [--clusters=N] [--placement]
//   gdptool sim     <workload|file.gdp> [--strategy=...] [--lat=N]
//                   (trace-driven cycle simulation vs. the static estimate)
//   gdptool schedule <workload|file.gdp> [--strategy=...] [--latency=N]
//                   (dumps the hottest region's cycle-by-cycle schedule)
//
//===----------------------------------------------------------------------===//

#include "gen/Generator.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "opt/Transforms.h"
#include "partition/AccessMerge.h"
#include "partition/DotExport.h"
#include "partition/GlobalDataPartitioner.h"
#include "partition/Pipeline.h"
#include "partition/PreparedCache.h"
#include "partition/ProgramGraph.h"
#include "profile/ExecTrace.h"
#include "sched/ListScheduler.h"
#include "sched/SchedulePrinter.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "sim/Evaluate.h"
#include "support/Arena.h"
#include "support/FaultInjector.h"
#include "support/Status.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <cassert>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

using namespace gdp;

namespace {

void usage(std::FILE *Out = stderr) {
  std::fprintf(
      Out,
      "usage: gdptool <command> [args]\n"
      "  list                         list bundled workloads\n"
      "  gen [gen-options]            emit a seeded random program as IR\n"
      "      --seed=N --ops=K         master seed / target op count\n"
      "      --objects=MIN:MAX --elems=MIN:MAX --heap=F --skew=F\n"
      "      --depth=N --trip=N --helpers=N --fanout=N --float=F\n"
      "      --branch=F --noinit --dynlimit=N   shape knobs (see\n"
      "                               src/gen/Generator.h)\n"
      "      --out=FILE               write the IR there instead of stdout\n"
      "  schedule <prog> [options]    dump the hottest region's schedule\n"
      "  dot <prog>                   GraphViz of the merged program graph\n"
      "  print <prog> [--init]        dump the program's IR\n"
      "  profile <prog>               run the profiler and dump statistics\n"
      "  run <prog> [options]         partition and report\n"
      "  sim <prog> [options]         trace-driven cycle simulation of the\n"
      "                               partitioned program vs. the static\n"
      "                               schedule estimate\n"
      "  serve [gdpd options]         run the partitioning daemon (same\n"
      "                               flags as gdpd; see 'gdpd --help')\n"
      "  request --server=ADDR <prog> [options]\n"
      "                               send one partition request to a gdpd\n"
      "      --strategy=K --lat=N --clusters=N --deadline-ms=N\n"
      "      --ir                     <prog> is an IR file sent as inline\n"
      "                               text (the daemon never opens paths)\n"
      "      --ping | --stats[=json|prometheus] | --shutdown\n"
      "                               server info / statistics / remote\n"
      "                               graceful shutdown instead of a\n"
      "                               partition request\n"
      "  report <prog> [options]      per-run attribution report: phase\n"
      "                               timings, stall taxonomy, cache and\n"
      "                               quantile metrics, degradation events\n"
      "      --format=text|md         report rendering (default text)\n"
      "      --out=FILE               write the report to FILE (default\n"
      "                               stdout)\n"
      "      --strategy=gdp|profilemax|naive|unified|all   (default: all)\n"
      "      --latency=N (or --lat=N) intercluster move latency, 1..%u\n"
      "                               (default 5)\n"
      "      --clusters=N             cluster count, 1..%u (default 2)\n"
      "      --placement              also print the object placement\n"
      "      --optimize               run fold/copy-prop/DCE first\n"
      "      --threads=N              evaluate strategies on N threads,\n"
      "                               1..%u (default: $GDP_THREADS, else\n"
      "                               1; the report is identical at any\n"
      "                               value)\n"
      "      --affinity[=V]           pin pool workers to cores (default:\n"
      "                               $GDP_AFFINITY, else off). V is\n"
      "                               1/on/true or 0/off/false; anything\n"
      "                               else is a UsageError (exit 2).\n"
      "                               Output is identical either way\n"
      "      --stats=FILE.json        dump telemetry counters/timers (also\n"
      "                               accepted by 'profile')\n"
      "      --trace=FILE.json        dump a Chrome trace_event log for\n"
      "                               chrome://tracing or Perfetto\n"
      "      --prometheus=FILE        dump the session's metrics in\n"
      "                               Prometheus text exposition format\n"
      "                               (the gdpd --stats surface)\n"
      "      --faults=SITE:N[+][@SCOPE]  inject deterministic faults (see\n"
      "                               docs/ROBUSTNESS.md; also via the\n"
      "                               GDP_FAULTS environment variable)\n"
      "  --help                       print this message\n"
      "<prog> is a bundled workload name, a path to a textual IR file, or a\n"
      "generated-program spec gen:SEED[:OPS] (same program as 'gdptool gen\n"
      "--seed=SEED --ops=OPS').\n"
      "exit codes: 0 success (including degraded strategy fallbacks),\n"
      "            1 usage error, 2 input/parse/verify/profile error,\n"
      "            3 infeasible or failed evaluation,\n"
      "            4 (request) server unreachable or no replica available\n"
      "              (transport-level Unavailable; diag site\n"
      "              serve.unavailable — docs/SERVING.md)\n",
      MaxMoveLatency, MaxClusters, support::MaxThreads);
}

bool OptimizeFlag = false;
std::string StatsPath;
std::string TracePath;
std::string PrometheusPath;
unsigned ThreadsFlag = 0; // 0 = resolve from GDP_THREADS (else serial).
std::string AffinityFlag; // Empty = resolve from GDP_AFFINITY (else off).
std::unique_ptr<support::FaultPlan> FaultsFlag; // From --faults=.

/// Prints every diagnostic on stderr in rendered form
/// ("severity: site: message [k=v, ...]").
void reportDiags(const std::vector<support::Diag> &Diags) {
  for (const support::Diag &D : Diags)
    std::fprintf(stderr, "%s\n", D.render().c_str());
}

/// Diagnoses a failed preparation (parse/verify/profile) with its
/// structured diagnostics and returns the input-error exit code.
int reportPrepareFailure(const PreparedProgram &PP) {
  if (!PP.Diags.empty())
    reportDiags(PP.Diags);
  else
    std::fprintf(stderr, "error: %s\n", PP.Error.c_str());
  return 2;
}

/// Diagnoses one strategy evaluation's robustness outcome: errors and exit
/// code 3 when it failed, warnings (still exit 0) when it degraded.
/// Returns the exit code this evaluation implies (0 or 3).
int reportEvaluation(StrategyKind Requested, const PipelineResult &R) {
  if (R.Failed) {
    reportDiags(R.Diags);
    std::fprintf(stderr, "error: %s: evaluation failed\n",
                 strategyName(Requested));
    return 3;
  }
  if (R.Degraded) {
    reportDiags(R.Diags);
    if (R.Fallbacks)
      std::fprintf(stderr,
                   "warning: %s degraded to %s after %u fallback(s)\n",
                   strategyName(Requested),
                   strategyName(R.EffectiveStrategy), R.Fallbacks);
    else
      std::fprintf(stderr,
                   "warning: %s recovered via relaxed-tolerance retry\n",
                   strategyName(Requested));
  }
  return 0;
}

unsigned toolThreads() {
  return ThreadsFlag ? ThreadsFlag : support::threadCountFromEnv();
}

/// Parses the value of the numeric flag \p Arg ("--name=N") into \p Out:
/// an integer in [1, \p Max]. Prints why not and returns false otherwise.
bool parseFlagValue(const std::string &Arg, unsigned Max, unsigned &Out) {
  size_t Eq = Arg.find('=');
  if (parsePositive(Arg.substr(Eq + 1), Out) && Out <= Max)
    return true;
  if (Max >= INT_MAX)
    std::fprintf(stderr, "error: %s needs a positive integer\n",
                 Arg.substr(0, Eq).c_str());
  else
    std::fprintf(stderr, "error: %s needs an integer in [1, %u]\n",
                 Arg.substr(0, Eq).c_str(), Max);
  return false;
}

/// Writes \p Contents to \p Path; reports and returns false on failure.
bool writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  Out << Contents;
  return true;
}

/// Installs a telemetry session when --stats/--trace was given (or when
/// \p Always — the report command renders from it either way) and
/// dumps the requested files on destruction.
class TelemetryExport {
public:
  explicit TelemetryExport(bool Always = false) {
    if (Always || !StatsPath.empty() || !TracePath.empty() ||
        !PrometheusPath.empty()) {
      Session = std::make_unique<telemetry::TelemetrySession>();
      Scope =
          std::make_unique<telemetry::ScopedSession>(*Session);
    }
  }

  ~TelemetryExport() {
    Scope.reset(); // Uninstall before exporting.
    if (!Session)
      return;
    bool WroteOk = true;
    if (!StatsPath.empty())
      WroteOk &= writeFile(StatsPath, Session->stats().toJson());
    if (!TracePath.empty())
      WroteOk &= writeFile(TracePath, Session->trace().toJson());
    if (!PrometheusPath.empty()) {
      // The arena gauge depends on the process's warm history, so it is
      // appended here and never enters session stats.
      std::string Prom = Session->stats().toPrometheus();
      Prom += formatStr("# TYPE gdp_arena_blocks gauge\n"
                        "gdp_arena_blocks %lld\n",
                        static_cast<long long>(support::processArenaBlocks()));
      WroteOk &= writeFile(PrometheusPath, Prom);
    }
    if (!WroteOk)
      std::exit(1);
  }

  telemetry::TelemetrySession *session() { return Session.get(); }

  /// Folds one evaluation's shard into the session, when there is one.
  void merge(const telemetry::TelemetrySession &Shard) {
    if (Session)
      Session->mergeFrom(Shard);
  }

private:
  std::unique_ptr<telemetry::TelemetrySession> Session;
  std::unique_ptr<telemetry::ScopedSession> Scope;
};

std::unique_ptr<Program> loadProgram(const std::string &Spec) {
  if (Spec.rfind("gen:", 0) == 0) {
    gen::GenOptions GO;
    if (!gen::parseGenSpec(Spec, GO)) {
      std::fprintf(stderr,
                   "error: malformed generated-program spec '%s' "
                   "(expected gen:SEED[:OPS])\n",
                   Spec.c_str());
      return nullptr;
    }
    return gen::generateProgram(GO); // Null already diagnosed on stderr.
  }
  if (auto P = buildWorkload(Spec))
    return P;
  std::ifstream In(Spec);
  if (!In) {
    std::fprintf(stderr, "error: '%s' is neither a workload nor a readable "
                         "file (try 'gdptool list')\n",
                 Spec.c_str());
    return nullptr;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  ParseResult R = parseProgram(Buf.str());
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", Spec.c_str(), R.Error.c_str());
    return nullptr;
  }
  return std::move(R.P);
}

/// Applies the optimizer when --optimize was given; reports what changed.
void maybeOptimize(Program &P) {
  if (!OptimizeFlag)
    return;
  unsigned Before = P.getNumOps();
  unsigned Changes = optimizeProgram(P);
  std::printf("optimizer: %u changes, %u -> %u operations\n", Changes,
              Before, P.getNumOps());
}

/// Loads, optionally optimizes, and prepares \p Spec through the
/// process-wide PreparedProgramCache: repeated commands against the same
/// program in one process build and profile it once and share the result.
/// The key folds in --optimize, since the optimizer mutates the program
/// before profiling and thus yields a distinct preparation. Returns an
/// entry whose Prog is null when loading failed (already diagnosed).
std::shared_ptr<const CachedPreparation>
loadPrepared(const std::string &Spec, bool CaptureTrace = false) {
  std::string Key = Spec + (OptimizeFlag ? "|opt" : "");
  return PreparedProgramCache::global().get(
      Key, CaptureTrace,
      [&Spec](std::vector<support::Diag> &) {
        std::unique_ptr<Program> P = loadProgram(Spec);
        if (P)
          maybeOptimize(*P);
        return P;
      });
}

/// Parses "MIN:MAX" into two unsigned 64-bit bounds, 0 < MIN <= MAX.
bool parseRange(const std::string &V, uint64_t &Lo, uint64_t &Hi) {
  size_t Colon = V.find(':');
  return Colon != std::string::npos &&
         parseUnsigned(V.substr(0, Colon), Lo) &&
         parseUnsigned(V.substr(Colon + 1), Hi) && Lo != 0 && Lo <= Hi;
}

/// Parses \p V as an unsigned 32-bit count (0 included).
bool parseCount(const std::string &V, unsigned &Out) {
  uint64_t N;
  if (!parseUnsigned(V, N) || N > UINT_MAX)
    return false;
  Out = static_cast<unsigned>(N);
  return true;
}

/// `gdptool gen`: emits one generated program as parseable IR text —
/// the one-line repro surface for every gen-corpus test failure.
int cmdGen(int argc, char **argv) {
  gen::GenOptions GO;
  std::string OutPath;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    bool Ok = true;
    uint64_t Lo = 0, Hi = 0;
    if (Arg.rfind("--seed=", 0) == 0)
      Ok = parseUnsigned(Arg.substr(7), GO.Seed);
    else if (Arg.rfind("--ops=", 0) == 0)
      Ok = parsePositive(Arg.substr(6), GO.TargetOps) &&
           GO.TargetOps <= 2000000;
    else if (Arg.rfind("--objects=", 0) == 0) {
      Ok = parseRange(Arg.substr(10), Lo, Hi) && Hi <= UINT_MAX;
      GO.MinObjects = static_cast<unsigned>(Lo);
      GO.MaxObjects = static_cast<unsigned>(Hi);
    } else if (Arg.rfind("--elems=", 0) == 0) {
      Ok = parseRange(Arg.substr(8), Lo, Hi);
      GO.MinElems = Lo;
      GO.MaxElems = Hi;
    } else if (Arg.rfind("--heap=", 0) == 0)
      Ok = parseFraction(Arg.substr(7), GO.HeapFraction);
    else if (Arg.rfind("--skew=", 0) == 0)
      Ok = parseFraction(Arg.substr(7), GO.AccessSkew);
    else if (Arg.rfind("--depth=", 0) == 0)
      Ok = parseCount(Arg.substr(8), GO.MaxLoopDepth);
    else if (Arg.rfind("--trip=", 0) == 0)
      Ok = parseUnsigned(Arg.substr(7), GO.MaxTrip);
    else if (Arg.rfind("--helpers=", 0) == 0)
      Ok = parseCount(Arg.substr(10), GO.MaxHelpers);
    else if (Arg.rfind("--fanout=", 0) == 0)
      Ok = parseCount(Arg.substr(9), GO.MaxCallFanout);
    else if (Arg.rfind("--float=", 0) == 0)
      Ok = parseFraction(Arg.substr(8), GO.FloatFraction);
    else if (Arg.rfind("--branch=", 0) == 0)
      Ok = parseFraction(Arg.substr(9), GO.BranchFraction);
    else if (Arg == "--noinit")
      GO.WithInit = false;
    else if (Arg.rfind("--dynlimit=", 0) == 0)
      Ok = parseUnsigned(Arg.substr(11), GO.DynOpLimit);
    else if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else {
      std::fprintf(stderr, "error: unknown gen option '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
    if (!Ok) {
      std::fprintf(stderr, "error: bad value in '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
  }
  auto P = gen::generateProgram(GO);
  if (!P)
    return 2;
  std::string Text = printProgram(*P, /*IncludeInit=*/true);
  if (OutPath.empty())
    std::printf("%s", Text.c_str());
  else if (!writeFile(OutPath, Text))
    return 2;
  return 0;
}

int cmdList() {
  TextTable Table({"name", "suite"});
  for (const WorkloadInfo &W : allWorkloads())
    Table.addRow({W.Name, W.Suite});
  std::printf("%s", Table.render().c_str());
  return 0;
}

int cmdPrint(const std::string &Spec, bool IncludeInit) {
  auto P = loadProgram(Spec);
  if (!P)
    return 2;
  std::printf("%s", printProgram(*P, IncludeInit).c_str());
  return 0;
}

int cmdProfile(const std::string &Spec) {
  TelemetryExport Telemetry;
  auto C = loadPrepared(Spec);
  if (!C->Prog)
    return 2;
  const PreparedProgram &PP = C->PP;
  if (!PP.Ok)
    return reportPrepareFailure(PP);
  const Program &P = *C->Prog;
  std::printf("program %s: %u functions, %u ops, %u data objects\n\n",
              P.getName().c_str(), P.getNumFunctions(), P.getNumOps(),
              P.getNumObjects());
  TextTable Table({"object", "kind", "bytes", "dynamic accesses"});
  for (const DataObject &Obj : P.objects())
    Table.addRow(
        {Obj.getName(), Obj.isGlobal() ? "global" : "heap-site",
         formatStr("%llu",
                   static_cast<unsigned long long>(Obj.getSizeBytes())),
         formatStr("%llu", static_cast<unsigned long long>(
                               PP.Prof.getObjectAccessTotal(Obj.getId())))});
  std::printf("%s", Table.render().c_str());
  return 0;
}

/// Parses a --strategy= value into the evaluation list (Unified first, as
/// the baseline). Empty means the value was not recognized.
std::vector<StrategyKind> parseStrategies(const std::string &StrategyArg) {
  if (StrategyArg == "all" || StrategyArg.empty())
    return {StrategyKind::Unified, StrategyKind::GDP,
            StrategyKind::ProfileMax, StrategyKind::Naive};
  StrategyKind K;
  if (parseStrategyName(StrategyArg, K))
    return {K};
  return {};
}

/// The fault plan of this invocation: --faults= when given, else
/// GDP_FAULTS.
const support::FaultPlan *faultPlan() {
  return FaultsFlag ? FaultsFlag.get() : support::FaultPlan::fromEnv();
}

/// Evaluates each strategy of \p Kinds on \p PP through the evaluation
/// driver (sim/Evaluate.h) and, with \p Simulate, replays every usable
/// result through the trace simulator. The cells run concurrently under
/// --threads; each records into its own shard and counts fault hits in its
/// own scope, `gdptool|<Verb>|<Spec>|<strategy>`. The caller merges the
/// shards into its session in strategy order, so tables, timings and any
/// --stats/--trace export are identical at every thread count.
std::vector<CellResult>
evaluateStrategies(const char *Verb, const std::string &Spec,
                   const PreparedProgram &PP,
                   const std::vector<StrategyKind> &Kinds, unsigned Latency,
                   unsigned Clusters, bool Simulate) {
  std::vector<EvalCell> Cells(Kinds.size());
  for (size_t I = 0; I != Kinds.size(); ++I) {
    Cells[I].PP = &PP;
    Cells[I].Opt.Strategy = Kinds[I];
    Cells[I].Opt.MoveLatency = Latency;
    Cells[I].Opt.NumClusters = Clusters;
    Cells[I].Scope = std::string("gdptool|") + Verb + "|" + Spec + "|" +
                     strategyName(Kinds[I]);
  }
  return evaluateCells(Cells, toolThreads(), faultPlan(), Simulate);
}

int cmdRun(const std::string &Spec, const std::string &StrategyArg,
           unsigned Latency, unsigned Clusters, bool ShowPlacement) {
  TelemetryExport Telemetry;
  auto C = loadPrepared(Spec);
  if (!C->Prog)
    return 2;
  const PreparedProgram &PP = C->PP;
  if (!PP.Ok)
    return reportPrepareFailure(PP);
  const Program &P = *C->Prog;

  std::vector<StrategyKind> Kinds = parseStrategies(StrategyArg);
  if (Kinds.empty()) {
    std::fprintf(stderr, "error: unknown strategy '%s'\n",
                 StrategyArg.c_str());
    return 1;
  }

  std::printf("program %s on %u clusters, %u-cycle moves\n\n",
              P.getName().c_str(), Clusters, Latency);

  std::vector<CellResult> Evals = evaluateStrategies(
      "run", Spec, PP, Kinds, Latency, Clusters, /*Simulate=*/false);

  TextTable Table({"strategy", "cycles", "dyn moves", "partition ms"});
  uint64_t UnifiedCycles = 0;
  int Exit = 0;
  std::vector<std::string> TimingLines;
  for (size_t I = 0; I != Kinds.size(); ++I) {
    StrategyKind K = Kinds[I];
    const PipelineResult &R = Evals[I].R;
    Telemetry.merge(*Evals[I].Shard);
    if (int Code = reportEvaluation(K, R))
      Exit = Code;
    // Per-strategy phase seconds come straight from the shard's timers.
    const telemetry::StatsRegistry &Stats = Evals[I].Shard->stats();
    auto Ms = [&Stats](const char *Name) {
      return Stats.getTime(Name) * 1e3;
    };
    TimingLines.push_back(formatStr(
        "%-10s data-partition %8.2f ms | rhop %8.2f ms | schedule %8.2f ms",
        strategyName(K), Ms("pipeline.data_partition"), Ms("pipeline.rhop"),
        Ms("pipeline.schedule")));
    if (K == StrategyKind::Unified)
      UnifiedCycles = R.Cycles;
    Table.addRow(
        {strategyName(K),
         R.Failed ? std::string("failed")
                  : formatStr("%llu",
                              static_cast<unsigned long long>(R.Cycles)),
         formatStr("%llu", static_cast<unsigned long long>(R.DynamicMoves)),
         formatDouble(partitionSeconds(Stats) * 1e3, 2)});
    if (ShowPlacement && !R.Failed && K != StrategyKind::Unified) {
      std::printf("%s placement:", strategyName(K));
      for (unsigned O = 0; O != P.getNumObjects(); ++O)
        std::printf(" %s=%d", P.getObject(O).getName().c_str(),
                    R.Placement.getHome(O));
      std::printf("\n");
    }
  }
  std::printf("%s", Table.render().c_str());
  std::printf("\ntiming (prepare %.2f ms):\n", PP.PrepareSeconds * 1e3);
  for (const std::string &Line : TimingLines)
    std::printf("  %s\n", Line.c_str());
  if (UnifiedCycles)
    std::printf("\n(unified memory is the upper-bound reference)\n");
  return Exit;
}

int cmdSim(const std::string &Spec, const std::string &StrategyArg,
           unsigned Latency, unsigned Clusters) {
  TelemetryExport Telemetry;
  auto C = loadPrepared(Spec, /*CaptureTrace=*/true);
  if (!C->Prog)
    return 2;
  const PreparedProgram &PP = C->PP;
  if (!PP.Ok)
    return reportPrepareFailure(PP);
  const Program &P = *C->Prog;

  std::vector<StrategyKind> Kinds = parseStrategies(StrategyArg);
  if (Kinds.empty()) {
    std::fprintf(stderr, "error: unknown strategy '%s'\n",
                 StrategyArg.c_str());
    return 1;
  }

  std::printf("program %s on %u clusters, %u-cycle moves — trace of %llu "
              "block executions\n\n",
              P.getName().c_str(), Clusters, Latency,
              static_cast<unsigned long long>(
                  PP.Summary->numBlockEvents()));

  std::vector<CellResult> Evals = evaluateStrategies(
      "sim", Spec, PP, Kinds, Latency, Clusters, /*Simulate=*/true);

  TextTable Table({"strategy", "static cycles", "sim cycles", "sim/static",
                   "bus stall", "move stall", "port stall", "remote"});
  int Exit = 0;
  for (size_t I = 0; I != Kinds.size(); ++I) {
    const CellResult &E = Evals[I];
    Telemetry.merge(*E.Shard);
    if (int Code = reportEvaluation(Kinds[I], E.R))
      Exit = Code;
    if (E.R.Failed)
      continue; // Diagnosed above; nothing to simulate or tabulate.
    if (!E.S.Ok) {
      reportDiags(E.S.Diags);
      std::fprintf(stderr, "error: %s: %s\n", strategyName(Kinds[I]),
                   E.S.Error.c_str());
      Exit = 3;
      continue;
    }
    Table.addRow(
        {strategyName(Kinds[I]),
         formatStr("%llu", static_cast<unsigned long long>(E.R.Cycles)),
         formatStr("%llu", static_cast<unsigned long long>(E.S.Cycles)),
         formatDouble(static_cast<double>(E.S.Cycles) /
                          static_cast<double>(E.R.Cycles ? E.R.Cycles : 1),
                      3),
         formatStr("%llu", static_cast<unsigned long long>(
                               E.S.BusContentionStallCycles)),
         formatStr("%llu", static_cast<unsigned long long>(
                               E.S.MoveLatencyStallCycles)),
         formatStr("%llu",
                   static_cast<unsigned long long>(E.S.MemPortStallCycles)),
         formatStr("%llu",
                   static_cast<unsigned long long>(E.S.RemoteAccesses))});
  }
  std::printf("%s", Table.render().c_str());

  std::printf("\nper-cluster issue-slot utilization:\n");
  for (size_t I = 0; I != Kinds.size(); ++I) {
    if (!Evals[I].S.Ok)
      continue;
    std::printf("  %-10s", strategyName(Kinds[I]));
    for (size_t C = 0; C != Evals[I].S.ClusterUtilization.size(); ++C)
      std::printf(" c%zu=%s", C,
                  formatDouble(Evals[I].S.ClusterUtilization[C], 3).c_str());
    std::printf("\n");
  }
  return Exit;
}

/// Table that renders as an aligned TextTable or a markdown pipe table,
/// so `report --format=md` can be pasted into a PR description verbatim.
class ReportTable {
public:
  explicit ReportTable(std::vector<std::string> H) : Header(std::move(H)) {}
  void addRow(std::vector<std::string> R) { Rows.push_back(std::move(R)); }

  std::string render(bool Markdown) const {
    if (!Markdown) {
      TextTable T(Header);
      for (const auto &R : Rows)
        T.addRow(R);
      return T.render();
    }
    auto Line = [](const std::vector<std::string> &Cells) {
      std::string S = "|";
      for (const std::string &C : Cells)
        S += " " + C + " |";
      return S + "\n";
    };
    std::string Out = Line(Header) + "|";
    for (size_t I = 0; I != Header.size(); ++I)
      Out += " --- |";
    Out += "\n";
    for (const auto &R : Rows)
      Out += Line(R);
    return Out;
  }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

std::string u64Str(uint64_t V) {
  return formatStr("%llu", static_cast<unsigned long long>(V));
}

/// `gdptool report`: evaluates every strategy (plus the trace simulator)
/// and renders one attribution document answering "where did this run's
/// time and cycles go" — compile-time phases, stall taxonomy, cache
/// behaviour, quantile metrics and robustness events. This is the human
/// twin of the --stats/--prometheus machine exports.
int cmdReport(const std::string &Spec, unsigned Latency, unsigned Clusters,
              const std::string &Format, const std::string &OutPath) {
  bool Markdown = Format == "md" || Format == "markdown";
  if (!Markdown && Format != "text") {
    std::fprintf(stderr, "error: unknown --format '%s' (text|md)\n",
                 Format.c_str());
    return 1;
  }
  TelemetryExport Telemetry(/*Always=*/true);
  telemetry::Span Root("gdptool.report", "tool");
  Root.attr("program", Spec)
      .attr("move_latency", Latency)
      .attr("clusters", Clusters);
  auto C = loadPrepared(Spec, /*CaptureTrace=*/true);
  if (!C->Prog)
    return 2;
  const PreparedProgram &PP = C->PP;
  if (!PP.Ok)
    return reportPrepareFailure(PP);
  const Program &P = *C->Prog;

  std::vector<StrategyKind> Kinds = parseStrategies("all");
  std::vector<CellResult> Evals = evaluateStrategies(
      "report", Spec, PP, Kinds, Latency, Clusters, /*Simulate=*/true);

  int Exit = 0;
  for (size_t I = 0; I != Kinds.size(); ++I) {
    Telemetry.merge(*Evals[I].Shard);
    if (Evals[I].R.Failed || (!Evals[I].S.Ok && Evals[I].R.ok()))
      Exit = 3;
  }
  const telemetry::StatsRegistry &Stats = Telemetry.session()->stats();

  std::string Out;
  auto Section = [&](const char *Title) {
    Out += Markdown ? formatStr("\n## %s\n\n", Title)
                    : formatStr("\n%s\n\n", Title);
  };
  Out += Markdown ? formatStr("# gdptool report: %s\n\n", P.getName().c_str())
                  : formatStr("gdptool report: %s\n\n", P.getName().c_str());
  Out += formatStr("%u functions, %u ops, %u data objects; %u clusters, "
                   "%u-cycle moves; trace of %llu block executions; "
                   "%u threads\n",
                   P.getNumFunctions(), P.getNumOps(), P.getNumObjects(),
                   Clusters, Latency,
                   static_cast<unsigned long long>(
                       PP.Summary->numBlockEvents()),
                   toolThreads());

  // -- Strategy results ----------------------------------------------------
  Section("strategy results");
  {
    ReportTable T({"strategy", "status", "cycles", "dyn moves",
                   "static moves", "rhop runs", "sim cycles", "sim/static"});
    for (size_t I = 0; I != Kinds.size(); ++I) {
      const CellResult &E = Evals[I];
      std::string Status = E.R.Failed     ? "failed"
                           : E.R.Degraded ? formatStr("degraded->%s",
                                                      strategyName(
                                                          E.R.EffectiveStrategy))
                                          : "ok";
      T.addRow({strategyName(Kinds[I]), Status,
                E.R.Failed ? "-" : u64Str(E.R.Cycles),
                E.R.Failed ? "-" : u64Str(E.R.DynamicMoves),
                E.R.Failed ? "-" : u64Str(E.R.StaticMoves),
                E.R.Failed ? "-" : u64Str(E.R.RHOPRuns),
                E.S.Ok ? u64Str(E.S.Cycles) : "-",
                E.S.Ok ? formatDouble(
                             static_cast<double>(E.S.Cycles) /
                                 static_cast<double>(E.R.Cycles ? E.R.Cycles
                                                                : 1),
                             3)
                       : "-"});
    }
    Out += T.render(Markdown);
  }

  // -- Compile-time phase breakdown ----------------------------------------
  Section("compile-time phase breakdown");
  {
    ReportTable T({"strategy", "data-partition ms", "rhop ms", "schedule ms",
                   "total ms"});
    for (size_t I = 0; I != Kinds.size(); ++I) {
      const telemetry::StatsRegistry &Cell = Evals[I].Shard->stats();
      auto Ms = [&Cell](const char *Name) { return Cell.getTime(Name) * 1e3; };
      double DP = Ms("pipeline.data_partition"), RH = Ms("pipeline.rhop"),
             SC = Ms("pipeline.schedule");
      T.addRow({strategyName(Kinds[I]), formatDouble(DP, 2),
                formatDouble(RH, 2), formatDouble(SC, 2),
                formatDouble(DP + RH + SC, 2)});
    }
    Out += T.render(Markdown);
    Out += formatStr("%sshared preparation (verify+points-to+profile+"
                     "CFG/loops/def-use/region DFGs): "
                     "%.2f ms\n",
                     Markdown ? "\n" : "", PP.PrepareSeconds * 1e3);
  }

  // -- Simulator stall taxonomy --------------------------------------------
  Section("simulator stall taxonomy");
  {
    ReportTable T({"strategy", "bus stall", "move stall", "port stall",
                   "bus transfers", "remote", "local"});
    for (size_t I = 0; I != Kinds.size(); ++I) {
      const SimResult &S = Evals[I].S;
      if (!S.Ok)
        continue;
      T.addRow({strategyName(Kinds[I]), u64Str(S.BusContentionStallCycles),
                u64Str(S.MoveLatencyStallCycles),
                u64Str(S.MemPortStallCycles), u64Str(S.BusTransfers),
                u64Str(S.RemoteAccesses), u64Str(S.LocalAccesses)});
    }
    Out += T.render(Markdown);
  }

  // -- Prepared-program cache ----------------------------------------------
  Section("prepared-program cache");
  {
    telemetry::ValueStats Resident = Stats.getValue("prepared_cache.resident");
    Out += formatStr("hits %llu, misses %llu, evictions %llu; peak resident "
                     "entries %g\n",
                     static_cast<unsigned long long>(
                         Stats.getCounter("prepared_cache.hits")),
                     static_cast<unsigned long long>(
                         Stats.getCounter("prepared_cache.misses")),
                     static_cast<unsigned long long>(
                         Stats.getCounter("prepared_cache.evictions")),
                     Resident.Max);
  }

  // -- Arena (transient partitioning state) --------------------------------
  Section("arena");
  {
    telemetry::ValueStats High = Stats.getValue("arena.high_water_bytes");
    Out += formatStr("scratch scopes %llu, requested bytes %llu, peak "
                     "scope live %g bytes; %lld warm blocks process-wide\n",
                     static_cast<unsigned long long>(
                         Stats.getCounter("arena.resets")),
                     static_cast<unsigned long long>(
                         Stats.getCounter("arena.bytes_allocated")),
                     High.Max,
                     static_cast<long long>(support::processArenaBlocks()));
  }

  // -- Quantile metrics ----------------------------------------------------
  Section("quantile metrics");
  {
    ReportTable T({"metric", "count", "mean", "p50", "p90", "p99"});
    for (const auto &[Name, H] : Stats.quantileSnapshot()) {
      telemetry::ValueStats V = Stats.getValue(Name);
      T.addRow({Name, u64Str(H.count()), formatDouble(V.mean(), 3),
                formatDouble(H.quantile(0.50), 3),
                formatDouble(H.quantile(0.90), 3),
                formatDouble(H.quantile(0.99), 3)});
    }
    Out += T.render(Markdown);
  }

  // -- Robustness ----------------------------------------------------------
  Section("robustness");
  {
    bool Any = false;
    for (const auto &[Name, V] : Stats.counterSnapshot()) {
      if (Name.rfind("budget.exhausted.", 0) == 0 ||
          Name.rfind("pipeline.degraded.", 0) == 0 ||
          Name == "pipeline.fallbacks" || Name.rfind("faults.", 0) == 0) {
        Out += formatStr("%s%s = %llu\n", Markdown ? "- " : "  ",
                         Name.c_str(), static_cast<unsigned long long>(V));
        Any = true;
      }
    }
    for (size_t I = 0; I != Kinds.size(); ++I)
      for (const support::Diag &D : Evals[I].R.Diags) {
        Out += formatStr("%s%s: %s\n", Markdown ? "- " : "  ",
                         strategyName(Kinds[I]), D.render().c_str());
        Any = true;
      }
    if (!Any)
      Out += Markdown ? "clean run: no degradation, budget or fault events\n"
                      : "  clean run: no degradation, budget or fault "
                        "events\n";
  }

  if (OutPath.empty()) {
    std::printf("%s", Out.c_str());
  } else if (!writeFile(OutPath, Out)) {
    return 2;
  }
  return Exit;
}

int cmdDot(const std::string &Spec) {
  auto C = loadPrepared(Spec);
  if (!C->Prog)
    return 2;
  const PreparedProgram &PP = C->PP;
  if (!PP.Ok)
    return reportPrepareFailure(PP);
  const Program &P = *C->Prog;
  ProgramGraph PG(*PP.Analyses, PP.Prof);
  AccessMerge Merge(PG, P, MergePolicy::AccessPattern);
  GDPResult D = runGlobalDataPartitioning(*PP.Analyses, PP.Prof, 2);
  if (!D.Feasible) {
    reportDiags(D.Diags);
    std::fprintf(stderr, "error: GDP placement infeasible\n");
    return 3;
  }
  std::printf("%s", exportProgramGraphDot(P, PG, Merge,
                                          &D.Placement).c_str());
  return 0;
}

int cmdSchedule(const std::string &Spec, const std::string &StrategyArg,
                unsigned Latency, unsigned Clusters) {
  // One block schedule per call: `all` (the default) shows GDP's.
  PipelineOptions Opt;
  if (StrategyArg != "all" && !StrategyArg.empty() &&
      !parseStrategyName(StrategyArg, Opt.Strategy)) {
    std::fprintf(stderr, "error: unknown strategy '%s'\n",
                 StrategyArg.c_str());
    return 1;
  }
  auto C = loadPrepared(Spec);
  if (!C->Prog)
    return 2;
  const PreparedProgram &PP = C->PP;
  if (!PP.Ok)
    return reportPrepareFailure(PP);
  const Program &P = *C->Prog;
  Opt.MoveLatency = Latency;
  Opt.NumClusters = Clusters;
  PipelineResult R = runStrategy(PP, Opt);
  if (int Code = reportEvaluation(Opt.Strategy, R))
    return Code;

  // Find the hottest block (largest cycle contribution).
  unsigned BestF = 0, BestB = 0;
  uint64_t BestContrib = 0;
  for (unsigned F = 0; F != P.getNumFunctions(); ++F)
    for (unsigned Bk = 0; Bk != P.getFunction(F).getNumBlocks(); ++Bk) {
      uint64_t Contrib =
          static_cast<uint64_t>(R.Schedule.Blocks[F][Bk].Length) *
          PP.Prof.getBlockFreq(F, Bk);
      if (Contrib > BestContrib) {
        BestContrib = Contrib;
        BestF = F;
        BestB = Bk;
      }
    }

  const Function &Fn = P.getFunction(BestF);
  const BlockDFG &DFG = PP.Analyses->function(BestF).dfg(BestB);
  std::printf("hottest region: %s/bb%u (%s), executed %llu times under %s\n\n",
              Fn.getName().c_str(), BestB,
              Fn.getBlock(BestB).getName().c_str(),
              static_cast<unsigned long long>(
                  PP.Prof.getBlockFreq(BestF, BestB)),
              strategyName(Opt.Strategy));
  std::printf("%s", printBlockSchedule(DFG, R.Schedule.Blocks[BestF][BestB],
                                       machineFor(Opt),
                                       R.Assignment.func(BestF)).c_str());
  return 0;
}

/// `gdptool serve`: the gdpd daemon under the gdptool umbrella (same
/// flags, same lifecycle — serve/Daemon.h is shared with tools/gdpd.cpp).
int cmdServe(int argc, char **argv) {
  serve::DaemonOptions Opt;
  for (int I = 2; I < argc; ++I) {
    std::string Err;
    if (!serve::parseDaemonArg(argv[I], Opt, Err)) {
      std::fprintf(stderr, "error: serve: %s (see 'gdpd --help')\n",
                   Err.c_str());
      return 1;
    }
  }
  return serve::runDaemon(Opt);
}

/// `gdptool request`: one client exchange with a running gdpd.
int cmdRequest(int argc, char **argv) {
  support::SockAddr Server;
  bool HaveServer = false, Ping = false, Shutdown = false, HaveStats = false;
  bool InlineIR = false;
  serve::StatsFormat StatsFmt = serve::StatsFormat::Json;
  serve::PartitionRequest Req;
  std::string Spec;
  unsigned TimeoutMs = 30000;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Err;
    if (Arg.rfind("--server=", 0) == 0) {
      if (!support::SockAddr::parse(Arg.substr(9), Server, &Err)) {
        std::fprintf(stderr, "error: request: %s\n", Err.c_str());
        return 1;
      }
      HaveServer = true;
    } else if (Arg == "--ping")
      Ping = true;
    else if (Arg == "--shutdown")
      Shutdown = true;
    else if (Arg == "--stats" || Arg.rfind("--stats=", 0) == 0) {
      HaveStats = true;
      std::string Fmt = Arg == "--stats" ? "json" : Arg.substr(8);
      if (Fmt == "json")
        StatsFmt = serve::StatsFormat::Json;
      else if (Fmt == "prometheus")
        StatsFmt = serve::StatsFormat::Prometheus;
      else {
        std::fprintf(stderr, "error: request: --stats expects json or "
                             "prometheus\n");
        return 1;
      }
    } else if (Arg == "--ir")
      InlineIR = true;
    else if (Arg.rfind("--strategy=", 0) == 0)
      Req.Strategy = Arg.substr(11);
    else if (Arg.rfind("--latency=", 0) == 0 || Arg.rfind("--lat=", 0) == 0) {
      if (!parseFlagValue(Arg, MaxMoveLatency, Req.MoveLatency))
        return 1;
    } else if (Arg.rfind("--clusters=", 0) == 0) {
      if (!parseFlagValue(Arg, MaxClusters, Req.Clusters))
        return 1;
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(14), Req.DeadlineMs)) {
        std::fprintf(stderr, "error: --deadline-ms needs a non-negative "
                             "integer\n");
        return 1;
      }
    } else if (Arg.rfind("--timeout-ms=", 0) == 0) {
      if (!parseFlagValue(Arg, INT_MAX, TimeoutMs))
        return 1;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: request: unknown flag '%s'\n",
                   Arg.c_str());
      return 1;
    } else
      Spec = Arg;
  }
  if (!HaveServer) {
    std::fprintf(stderr, "error: request needs --server=ADDR\n");
    return 1;
  }
  if (!Ping && !Shutdown && !HaveStats && Spec.empty()) {
    std::fprintf(stderr,
                 "error: request needs a <prog> spec (or --ping, --stats, "
                 "--shutdown)\n");
    return 1;
  }

  serve::Client C;
  C.setTimeoutMs(static_cast<int>(TimeoutMs));
  std::vector<support::Diag> Diags;
  if (!C.connect(Server, static_cast<int>(TimeoutMs), &Diags)) {
    // Transport-level unavailability gets its own exit code (4) and diag
    // site so scripts can tell "shard down" from "bad request".
    Diags.push_back(support::errorDiag(support::StatusCode::Internal,
                                       "serve.unavailable",
                                       "server unreachable")
                        .with("server", Server.str()));
    reportDiags(Diags);
    return 4;
  }
  if (Ping) {
    std::string Info;
    if (!C.ping(Info, &Diags)) {
      reportDiags(Diags);
      return 2;
    }
    std::printf("%s", Info.c_str());
    return 0;
  }
  if (HaveStats) {
    std::string Body;
    serve::Status S = C.stats(StatsFmt, Body, &Diags);
    std::printf("%s", Body.c_str());
    if (S == serve::Status::Ok)
      return 0;
    reportDiags(Diags);
    return 3;
  }
  if (Shutdown) {
    if (!C.shutdownServer(&Diags)) {
      reportDiags(Diags);
      return 3;
    }
    std::printf("server stopping\n");
    return 0;
  }

  if (InlineIR) {
    // Client-side file read: the daemon only accepts inline text, never
    // request-named paths.
    std::ifstream In(Spec);
    if (!In) {
      std::fprintf(stderr, "error: cannot read IR file '%s'\n", Spec.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Req.Spec = Buf.str();
    Req.InlineIR = true;
  } else {
    Req.Spec = Spec;
  }
  std::string Body;
  serve::Status S = C.partition(Req, Body, &Diags);
  std::printf("%s", Body.c_str());
  if (S == serve::Status::Ok)
    return 0;
  if (S == serve::Status::Unavailable ||
      (S == serve::Status::InternalError && !C.connected())) {
    // Unreachable shard / dropped connection: transport-shaped, exit 4.
    Diags.push_back(support::errorDiag(support::StatusCode::Internal,
                                       "serve.unavailable",
                                       "service unavailable")
                        .with("server", Server.str()));
    reportDiags(Diags);
    std::fprintf(stderr, "error: server answered %s\n",
                 serve::statusName(S));
    return 4;
  }
  reportDiags(Diags);
  std::fprintf(stderr, "error: server answered %s\n", serve::statusName(S));
  return S == serve::Status::BadRequest  ? 1
         : S == serve::Status::InputError ? 2
                                          : 3;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string Cmd = argv[1];
  if (Cmd == "--help" || Cmd == "-h" || Cmd == "help") {
    usage(stdout);
    return 0;
  }
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "gen")
    return cmdGen(argc, argv);
  if (Cmd == "serve")
    return cmdServe(argc, argv);
  if (Cmd == "request")
    return cmdRequest(argc, argv);

  bool Known = Cmd == "print" || Cmd == "profile" || Cmd == "run" ||
               Cmd == "sim" || Cmd == "report" || Cmd == "schedule" ||
               Cmd == "dot";
  if (!Known) {
    std::fprintf(stderr, "error: unknown command '%s'\n", Cmd.c_str());
    usage();
    return 1;
  }
  if (argc < 3) {
    std::fprintf(stderr, "error: command '%s' needs a <prog> argument\n",
                 Cmd.c_str());
    usage();
    return 1;
  }
  std::string Spec = argv[2];
  std::string Strategy = "all";
  std::string Format = "text", OutPath;
  unsigned Latency = 5, Clusters = 2;
  bool IncludeInit = false, ShowPlacement = false, Optimize = false;
  for (int I = 3; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--init")
      IncludeInit = true;
    else if (Arg == "--placement")
      ShowPlacement = true;
    else if (Arg == "--optimize")
      Optimize = true;
    else if (Arg.rfind("--strategy=", 0) == 0)
      Strategy = Arg.substr(11);
    else if (Arg.rfind("--latency=", 0) == 0 ||
             Arg.rfind("--lat=", 0) == 0) {
      if (!parseFlagValue(Arg, MaxMoveLatency, Latency)) {
        usage();
        return 1;
      }
    } else if (Arg.rfind("--clusters=", 0) == 0) {
      if (!parseFlagValue(Arg, MaxClusters, Clusters)) {
        usage();
        return 1;
      }
    } else if (Arg.rfind("--threads=", 0) == 0) {
      if (!parseFlagValue(Arg, support::MaxThreads, ThreadsFlag)) {
        usage();
        return 1;
      }
    } else if (Arg == "--affinity")
      AffinityFlag = "1";
    else if (Arg.rfind("--affinity=", 0) == 0)
      AffinityFlag = Arg.size() > 11 ? Arg.substr(11) : "1";
    else if (Arg.rfind("--stats=", 0) == 0)
      StatsPath = Arg.substr(8);
    else if (Arg.rfind("--trace=", 0) == 0)
      TracePath = Arg.substr(8);
    else if (Arg.rfind("--prometheus=", 0) == 0)
      PrometheusPath = Arg.substr(13);
    else if (Arg.rfind("--format=", 0) == 0)
      Format = Arg.substr(9);
    else if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else if (Arg.rfind("--faults=", 0) == 0) {
      auto Plan = std::make_unique<support::FaultPlan>();
      std::string Err;
      if (!support::FaultPlan::parse(Arg.substr(9), *Plan, &Err)) {
        std::fprintf(stderr, "error: --faults: %s\n", Err.c_str());
        usage();
        return 1;
      }
      FaultsFlag = std::move(Plan);
    }
    else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
  }
  // Worker pinning: --affinity beats GDP_AFFINITY; an unparsable value in
  // either is a structured usage error with the input-error exit code.
  if (std::string Err; !support::resolveThreadAffinity(AffinityFlag, &Err)) {
    std::fprintf(stderr, "%s\n",
                 support::errorDiag(support::StatusCode::UsageError,
                                    "gdptool.affinity", Err)
                     .render()
                     .c_str());
    return 2;
  }

  OptimizeFlag = Optimize;
  // One fault-counting scope spans the whole command, so `--faults=site:n`
  // means "the n-th hit of this invocation" regardless of strategy count
  // or thread schedule (docs/ROBUSTNESS.md).
  support::FaultScope Scope(faultPlan(), "gdptool|" + Cmd + "|" + Spec);
  if (Cmd == "print")
    return cmdPrint(Spec, IncludeInit);
  if (Cmd == "profile")
    return cmdProfile(Spec);
  if (Cmd == "run")
    return cmdRun(Spec, Strategy, Latency, Clusters, ShowPlacement);
  if (Cmd == "sim")
    return cmdSim(Spec, Strategy, Latency, Clusters);
  if (Cmd == "report")
    return cmdReport(Spec, Latency, Clusters, Format, OutPath);
  if (Cmd == "schedule")
    return cmdSchedule(Spec, Strategy, Latency, Clusters);
  if (Cmd == "dot")
    return cmdDot(Spec);
  assert(false && "command validated above");
  return 1;
}
