//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//

#include "Bench.h"

#include "gen/Generator.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>

using namespace gdp;

namespace perfbench {

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"suite_matrix",
                                                 "serve_mixed"};
  return Names;
}

const std::vector<MetricSpec> &metricCatalogue() {
  // The per-layer rows are the prediction table of README.md: which
  // end-to-end metric each layer metric should move, and on which
  // workload the layer does most / little of its work. gen_large, the
  // large generated programs, is predicted but not run (README.md).
  static const std::vector<MetricSpec> Specs = {
      {"setup_s", "s", true, "", "", false},
      {"compile_s", "s", true, "", "", false},
      {"sim_s", "s", true, "", "", false},
      {"gdp_rel_perf", "ratio", true, "", "", false},
      {"peak_rss_mb", "MB", true, "", "", false},
      {"rps", "req/s", true, "", "", false},
      {"p50_ms", "ms", true, "", "", false},
      {"p99_ms", "ms", true, "", "", false},
      {"miss_p50_ms", "ms", true, "", "", false},

      {"gen.generate_s", "s", false, "setup_s, miss_p50_ms",
       "gen_large (not run), serve_mixed misses / suite_matrix", false},
      {"gen.static_ops", "count", false, "setup_s, miss_p50_ms",
       "gen_large (not run), serve_mixed misses / suite_matrix", false},
      {"ir.verify_s", "s", false, "compile_s, miss_p50_ms",
       "suite_matrix, serve_mixed / gen_large (not run)", false},
      {"ir.parse_s", "s", false, "compile_s, miss_p50_ms",
       "suite_matrix, serve_mixed / gen_large (not run)", false},
      {"analysis.points_to_s", "s", false, "compile_s, peak_rss_mb",
       "gen_large (not run) / suite_matrix", false},
      {"analysis.cfg_s", "s", false, "compile_s, peak_rss_mb",
       "gen_large (not run) / suite_matrix", false},
      {"analysis.defuse_s", "s", false, "compile_s, peak_rss_mb",
       "gen_large (not run) / suite_matrix", false},
      {"analysis.loops_s", "s", false, "compile_s, peak_rss_mb",
       "gen_large (not run) / suite_matrix", false},
      {"analysis.blocks", "count", false, "compile_s, peak_rss_mb",
       "gen_large (not run) / suite_matrix", false},
      {"analysis.defs", "count", false, "compile_s, peak_rss_mb",
       "gen_large (not run) / suite_matrix", false},
      {"analysis.call_sites", "count", false, "compile_s, peak_rss_mb",
       "gen_large (not run) / suite_matrix", false},
      {"profile.interpret_s", "s", false, "compile_s, miss_p50_ms",
       "suite_matrix, serve_mixed misses / gen_large (not run)", false},
      {"profile.block_execs", "count", false, "compile_s, miss_p50_ms",
       "suite_matrix, serve_mixed misses / gen_large (not run)", false},
      {"partition.prepare_s", "s", false, "compile_s, miss_p50_ms",
       "all (10-14% of suite_matrix compile time) / serve_mixed hits",
       false},
      {"partition.program_graph_s", "s", false, "compile_s",
       "gen_large (not run) / suite_matrix", false},
      {"partition.access_merge_s", "s", false, "compile_s",
       "gen_large (not run) / suite_matrix", false},
      {"partition.gdp_s", "s", false, "compile_s",
       "gen_large (not run) / suite_matrix", false},
      {"partition.rhop_free_s", "s", false, "compile_s; rps, p50_ms",
       "suite_matrix, serve_mixed hits / -", false},
      {"partition.rhop_locked_s", "s", false, "compile_s; rps, p50_ms",
       "suite_matrix, serve_mixed hits / -", false},
      {"partition.strategy_gdp_s", "s", false, "compile_s; rps, p50_ms",
       "suite_matrix, serve_mixed hits / -", false},
      {"partition.strategy_profilemax_s", "s", false,
       "compile_s; rps, p50_ms",
       "suite_matrix, serve_mixed hits / -", false},
      {"partition.strategy_naive_s", "s", false, "compile_s; rps, p50_ms",
       "suite_matrix, serve_mixed hits / -", false},
      {"partition.strategy_unified_s", "s", false, "compile_s; rps, p50_ms",
       "suite_matrix, serve_mixed hits / -", false},
      {"partition.graph_nodes", "count", false, "compile_s",
       "gen_large (not run) / suite_matrix", false},
      {"partition.graph_edges", "count", false, "compile_s",
       "gen_large (not run) / suite_matrix", false},
      {"partition.cut_weight", "count", false, "gdp_rel_perf",
       "all (a quality count, not work)", false},
      {"partition.rhop_runs", "count", false, "compile_s; rps, p50_ms",
       "suite_matrix, serve_mixed hits / -", false},
      {"partition.fallbacks", "count", false, "compile_s, gdp_rel_perf",
       "none expected (0 at this commit)", false},
      {"graph.partition_s", "s", false, "compile_s",
       "small everywhere: predicted no visible change", true},
      {"sched.schedule_s", "s", false, "compile_s",
       "gen_large (not run) / suite_matrix", false},
      {"sched.static_moves", "count", false, "compile_s, gdp_rel_perf",
       "gen_large (not run) / suite_matrix", false},
      {"sched.dynamic_moves", "count", false, "compile_s, gdp_rel_perf",
       "gen_large (not run) / suite_matrix", false},
      {"sim.simulate_s", "s", false, "sim_s",
       "suite_matrix / serve_mixed (reference passes)", false},
      {"sim.block_execs", "count", false, "sim_s",
       "suite_matrix / serve_mixed (reference passes)", false},
      {"sim.bus_transfers", "count", false, "sim_s",
       "suite_matrix / serve_mixed (reference passes)", false},
      {"sim.ns_per_block_exec", "ns", false, "sim_s",
       "suite_matrix / serve_mixed (reference passes)", false},
      {"serve.codec_us", "us", false, "rps, p50_ms, p99_ms",
       "serve_mixed / suite_matrix: must not move", false},
      {"serve.service_hit_ms", "ms", false, "rps, p50_ms, p99_ms",
       "serve_mixed / suite_matrix: must not move", false},
      {"serve.service_miss_ms", "ms", false, "miss_p50_ms",
       "serve_mixed / suite_matrix: must not move", false},
      {"serve.shard_rtt_ms", "ms", false, "rps, p50_ms, p99_ms",
       "serve_mixed / suite_matrix: must not move", false},
      {"serve.coord_rtt_ms", "ms", false, "rps, p50_ms, p99_ms",
       "serve_mixed / suite_matrix: must not move", false},
      {"serve.coord_wait_ms", "ms", false, "rps, p50_ms, p99_ms",
       "none on one CPU (serve_mixed) / suite_matrix: must not move", true},
      {"serve.cache_hit_ratio", "ratio", false, "rps, p50_ms",
       "serve_mixed / suite_matrix: must not move", false},
      {"serve.retries", "count", false, "rps, p99_ms",
       "none expected (0 at this commit)", false},
      {"serve.shed", "count", false, "rps, p99_ms",
       "none expected (0 at this commit)", false},
      {"trace.overhead_ratio", "ratio", false, "(none: traced vs untraced)",
       "all", false},
  };
  return Specs;
}

void Tally::record(const std::string &Why) {
  ++Attempted;
  if (Why.empty())
    return;
  ++Failed;
  if (FailureNotes.size() < 8)
    FailureNotes.push_back(Why);
}

namespace {

std::string numberText(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

} // namespace

int printReport(const Options &Opt, const Report &R) {
  std::map<std::string, const Metric *> ByName;
  for (const Metric &M : R.Metrics)
    ByName[M.Name] = &M;

  std::vector<std::pair<const MetricSpec *, const Metric *>> Rows;
  for (const MetricSpec &S : metricCatalogue()) {
    if (S.EndToEnd == Opt.Trace)
      continue;
    auto It = ByName.find(S.Name);
    if (It == ByName.end() || !std::isfinite(It->second->Value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   S.Name);
      return 1;
    }
    Rows.push_back({&S, It->second});
  }

  std::printf("\nperfbench %s  workload=%s seed=%llu seconds=%g\n",
              Opt.Trace ? "traced run (per-layer)" : "end-to-end",
              Opt.Workload.c_str(),
              static_cast<unsigned long long>(Opt.Seed), Opt.Seconds);
  if (Opt.Trace)
    std::printf("%-32s %14s %-6s %8s  %-28s %s\n", "metric", "value", "unit",
                "samples", "should move", "most work / little work");
  else
    std::printf("%-32s %14s %-6s %8s\n", "metric", "value", "unit",
                "samples");
  for (auto &[S, M] : Rows) {
    std::string Name = S->Name;
    if (S->Derived)
      Name += " (derived)";
    if (Opt.Trace)
      std::printf("%-32s %14.6g %-6s %8llu  %-28s %s\n", Name.c_str(),
                  M->Value, S->Unit,
                  static_cast<unsigned long long>(M->Samples), S->Moves,
                  S->Where);
    else
      std::printf("%-32s %14.6g %-6s %8llu\n", Name.c_str(), M->Value,
                  S->Unit, static_cast<unsigned long long>(M->Samples));
  }
  std::printf("operations: attempted=%llu failed=%llu degraded=%llu\n",
              static_cast<unsigned long long>(R.T.Attempted),
              static_cast<unsigned long long>(R.T.Failed),
              static_cast<unsigned long long>(R.T.Degraded));
  for (const std::string &N : R.Notes)
    std::printf("note: %s\n", N.c_str());
  for (const std::string &F : R.T.FailureNotes)
    std::printf("FAILED: %s\n", F.c_str());

  bool Correct = R.T.Failed == 0 && R.T.Attempted > 0;
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.T.Attempted);
  Json += ", \"failed\": " + std::to_string(R.T.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (auto &[S, M] : Rows) {
    if (!First)
      Json += ", ";
    First = false;
    Json += formatStr("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", S->Name,
                      numberText(M->Value).c_str(), S->Unit);
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return 0;
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 1.0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching python process's footprint
  // whenever that exceeds the benchmark's own.
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

Source Source::named(const std::string &Name) {
  Source S;
  S.K = Named;
  S.Label = Name;
  return S;
}

Source Source::genSpec(uint64_t Seed, unsigned Ops) {
  Source S;
  S.K = Gen;
  S.Label = "gen:" + std::to_string(Seed) + ":" + std::to_string(Ops);
  gen::parseGenSpec(S.Label, S.GO); // A decimal seed and op count parse.
  return S;
}

Source Source::inlineOf(const Source &Origin) {
  Source S;
  S.K = Inline;
  S.Label = "inline IR of " + Origin.Label;
  auto P = Origin.build();
  S.IR = P ? printProgram(*P, /*IncludeInit=*/true) : std::string();
  return S;
}

std::unique_ptr<Program> Source::build() const {
  switch (K) {
  case Named:
    return buildWorkload(Label);
  case Gen:
    return gen::generateProgram(GO);
  case Inline:
    return parseProgram(IR).P;
  }
  return nullptr;
}

serve::PartitionRequest Source::request(StrategyKind S, unsigned Lat) const {
  serve::PartitionRequest Req;
  Req.Strategy = wireStrategy(S);
  Req.MoveLatency = Lat;
  Req.InlineIR = K == Inline;
  Req.Spec = K == Inline ? IR : Label;
  return Req;
}

std::vector<Source> suiteSources() {
  std::vector<Source> Out;
  for (const WorkloadInfo &W : allWorkloads())
    if (W.Suite != "extra")
      Out.push_back(Source::named(W.Name));
  return Out;
}

const std::vector<StrategyKind> &allStrategies() {
  static const std::vector<StrategyKind> S = {
      StrategyKind::Unified, StrategyKind::GDP, StrategyKind::ProfileMax,
      StrategyKind::Naive};
  return S;
}

const char *wireStrategy(StrategyKind S) {
  switch (S) {
  case StrategyKind::GDP:
    return "gdp";
  case StrategyKind::ProfileMax:
    return "profilemax";
  case StrategyKind::Naive:
    return "naive";
  case StrategyKind::Unified:
    return "unified";
  }
  return "gdp";
}

CellOutcome outcomeOf(const PipelineResult &R) {
  return {R.Cycles, R.DynamicMoves, R.StaticMoves};
}

} // namespace perfbench
