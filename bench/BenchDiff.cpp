//===- bench/BenchDiff.cpp - Benchmark record comparison --------------------===//

#include "bench/BenchDiff.h"

#include "support/Json.h"
#include "support/StrUtil.h"

#include <cmath>

using namespace gdp;
using namespace gdp::bench;
using gdp::support::json::JVal;

namespace {

/// Deterministic gdp-bench-v1 metrics worth gating on. Wall-clock fields
/// (*_sec) are deliberately absent: they are zeroed in deterministic
/// records and machine-dependent otherwise.
const char *const BenchMetrics[] = {
    "cycles",
    "dynamic_moves",
    "static_moves",
    "rhop_runs",
    "sim_cycles",
    "sim_bus_transfers",
    "sim_remote_accesses",
    "sim_stall_bus_contention",
    "sim_stall_move_latency",
    "sim_stall_mem_port",
    "evaluated_points",
};

/// One flattened record: its identity key, its comparable metrics, and
/// whether the run failed.
struct FlatRecord {
  std::map<std::string, double> Metrics;
  bool Failed = false;
};

std::string numKey(double V) {
  // move_latency is a small integer; render without a fraction.
  return formatStr("%g", V);
}

/// Flattens either schema into key -> FlatRecord. Returns false and sets
/// Error on unknown schema / malformed structure.
bool flatten(const JVal &Doc, std::map<std::string, FlatRecord> &Out,
             std::string &Error) {
  if (Doc.K != JVal::Object || !Doc.has("schema") ||
      Doc["schema"].K != JVal::String) {
    Error = "missing \"schema\" key";
    return false;
  }
  const std::string &Schema = Doc["schema"].Str;
  if (Schema == "gdp-bench-v1") {
    if (!Doc.has("records") || Doc["records"].K != JVal::Array) {
      Error = "gdp-bench-v1 file has no \"records\" array";
      return false;
    }
    for (const JVal &R : Doc["records"].Arr) {
      if (R.K != JVal::Object || !R.has("benchmark"))
        continue; // Tolerate partial records: they key off nothing.
      std::string Key = R["benchmark"].Str + "|" + R["strategy"].Str;
      if (R.has("move_latency"))
        Key += "|lat" + numKey(R["move_latency"].Num);
      if (R.has("sim_cycles"))
        Key += "|sim";
      FlatRecord &F = Out[Key];
      for (const char *M : BenchMetrics)
        if (R.has(M) && R[M].K == JVal::Number)
          F.Metrics[M] = R[M].Num;
      if (R.has("status") && R["status"].Str == "failed")
        F.Failed = true;
    }
    return true;
  }
  if (Schema == "gdp-compile-speed-v1") {
    if (!Doc.has("workloads") || Doc["workloads"].K != JVal::Array) {
      Error = "gdp-compile-speed-v1 file has no \"workloads\" array";
      return false;
    }
    for (const JVal &W : Doc["workloads"].Arr) {
      if (W.K != JVal::Object || !W.has("workload"))
        continue;
      FlatRecord &F = Out[W["workload"].Str];
      if (W.has("workload_wall_sec"))
        F.Metrics["workload_wall_sec"] = W["workload_wall_sec"].Num;
    }
    return true;
  }
  if (Schema == "gdp-gen-scale-v1") {
    // One record per (program size, generator seed, thread count,
    // strategy): gen_scale seeds each size by its position in --sizes, so
    // the same size from a different seed is a different program. Only
    // the deterministic fields gate: the *_sec fields are wall clock,
    // zeroed by gen_scale's --deterministic mode and machine-dependent
    // otherwise.
    if (!Doc.has("records") || Doc["records"].K != JVal::Array) {
      Error = "gdp-gen-scale-v1 file has no \"records\" array";
      return false;
    }
    for (const JVal &R : Doc["records"].Arr) {
      if (R.K != JVal::Object || !R.has("ops") || !R.has("thread_runs"))
        continue;
      std::string Program = formatStr("ops%.0f", R["ops"].Num);
      if (R.has("seed"))
        Program += formatStr("|seed%.0f", R["seed"].Num);
      for (const JVal &T : R["thread_runs"].Arr) {
        if (T.K != JVal::Object || !T.has("threads") ||
            !T.has("strategies"))
          continue;
        for (const JVal &S : T["strategies"].Arr) {
          if (S.K != JVal::Object || !S.has("strategy"))
            continue;
          FlatRecord &F =
              Out[Program + formatStr("|threads%.0f|", T["threads"].Num) +
                  S["strategy"].Str];
          for (const char *M :
               {"cycles", "dyn_moves", "static_moves", "rhop_runs"})
            if (S.has(M) && S[M].K == JVal::Number)
              F.Metrics[M] = S[M].Num;
        }
      }
    }
    return true;
  }
  if (Schema == "gdp-serve-v1") {
    // One record per file, keyed by cluster shape. Deterministic counts
    // only — throughput/latency are wall-clock (zeroed by the bench's
    // --deterministic mode) and never gated.
    std::string Key = "serve";
    if (Doc.has("shards"))
      Key += "|shards" + numKey(Doc["shards"].Num);
    if (Doc.has("clients"))
      Key += "|clients" + numKey(Doc["clients"].Num);
    FlatRecord &F = Out[Key];
    for (const char *M : {"requests", "ok", "failed", "cache_hits"})
      if (Doc.has(M) && Doc[M].K == JVal::Number)
        F.Metrics[M] = Doc[M].Num;
    if (F.Metrics.count("failed") && F.Metrics["failed"] > 0)
      F.Failed = true;
    return true;
  }
  if (Schema == "gdp-serve-chaos-v1") {
    // Availability under injected shard outages. Counts only (issued/ok
    // vary with wall clock between runs, so only hard failure signals
    // gate): lost requests, failed requests, missed post-recovery probes.
    std::string Key = "serve-chaos";
    if (Doc.has("shards"))
      Key += "|shards" + numKey(Doc["shards"].Num);
    if (Doc.has("replicas"))
      Key += "|replicas" + numKey(Doc["replicas"].Num);
    FlatRecord &F = Out[Key];
    for (const char *M : {"failed", "lost", "success_rate", "retries",
                          "failovers"})
      if (Doc.has(M) && Doc[M].K == JVal::Number)
        F.Metrics[M] = Doc[M].Num;
    if (Doc.has("post_recovery") && Doc["post_recovery"].K == JVal::Object) {
      const JVal &PR = Doc["post_recovery"];
      if (PR.has("requests") && PR.has("ok"))
        F.Metrics["post_recovery_missed"] =
            PR["requests"].Num - PR["ok"].Num;
    }
    if ((F.Metrics.count("failed") && F.Metrics["failed"] > 0) ||
        (F.Metrics.count("post_recovery_missed") &&
         F.Metrics["post_recovery_missed"] > 0))
      F.Failed = true;
    return true;
  }
  Error = "unknown schema \"" + Schema + "\"";
  return false;
}

} // namespace

DiffResult gdp::bench::diffBenchJson(const std::string &BaselineText,
                                     const std::string &CurrentText,
                                     const DiffOptions &Opt) {
  DiffResult Res;
  JVal Base, Cur;
  std::string Err;
  if (!support::json::parse(BaselineText, Base, Err)) {
    Res.Error = "baseline: " + Err;
    return Res;
  }
  if (!support::json::parse(CurrentText, Cur, Err)) {
    Res.Error = "current: " + Err;
    return Res;
  }
  std::map<std::string, FlatRecord> BaseRecs, CurRecs;
  if (!flatten(Base, BaseRecs, Err)) {
    Res.Error = "baseline: " + Err;
    return Res;
  }
  if (!flatten(Cur, CurRecs, Err)) {
    Res.Error = "current: " + Err;
    return Res;
  }
  Res.Ok = true;

  auto toleranceFor = [&Opt](const std::string &Metric) {
    auto It = Opt.MetricTolerance.find(Metric);
    return It == Opt.MetricTolerance.end() ? Opt.DefaultTolerance
                                           : It->second;
  };

  for (const auto &[Key, BF] : BaseRecs) {
    auto CIt = CurRecs.find(Key);
    if (CIt == CurRecs.end()) {
      Res.MissingInCurrent.push_back(Key);
      if (!Opt.AllowMissing)
        ++Res.Regressions;
      continue;
    }
    const FlatRecord &CF = CIt->second;
    if (CF.Failed && !BF.Failed) {
      MetricDelta D;
      D.Key = Key;
      D.Metric = "status";
      D.Regressed = true;
      Res.Deltas.push_back(D);
      ++Res.Regressions;
      continue;
    }
    for (const auto &[Metric, BaseV] : BF.Metrics) {
      auto MIt = CF.Metrics.find(Metric);
      if (MIt == CF.Metrics.end())
        continue; // Metric vanished (e.g. record degraded): status covers it.
      MetricDelta D;
      D.Key = Key;
      D.Metric = Metric;
      D.Baseline = BaseV;
      D.Current = MIt->second;
      D.Tolerance = toleranceFor(Metric);
      double Allowed = BaseV * (1.0 + D.Tolerance);
      D.Regressed = BaseV == 0 ? D.Current > 0 : D.Current > Allowed;
      D.Improved = D.Current < BaseV;
      if (D.Regressed)
        ++Res.Regressions;
      Res.Deltas.push_back(std::move(D));
    }
  }
  for (const auto &[Key, CF] : CurRecs)
    if (!BaseRecs.count(Key))
      Res.NewInCurrent.push_back(Key);
  return Res;
}

std::string gdp::bench::renderDiffReport(const DiffResult &R, bool Verbose) {
  if (!R.Ok)
    return "bench_diff: error: " + R.Error + "\n";
  std::string Out;
  unsigned Improvements = 0;
  for (const MetricDelta &D : R.Deltas) {
    if (D.Improved)
      ++Improvements;
    if (!D.Regressed && !Verbose)
      continue;
    const char *Tag = D.Regressed ? "REGRESSION" : (D.Improved ? "improved"
                                                              : "ok");
    if (D.Metric == "status")
      Out += formatStr("%-10s %s: run failed (baseline was clean)\n", Tag,
                       D.Key.c_str());
    else
      Out += formatStr("%-10s %s: %s %.6g -> %.6g (tolerance +%g%%)\n", Tag,
                       D.Key.c_str(), D.Metric.c_str(), D.Baseline,
                       D.Current, D.Tolerance * 100.0);
  }
  for (const std::string &Key : R.MissingInCurrent)
    Out += formatStr("MISSING    %s: present in baseline, absent now\n",
                     Key.c_str());
  for (const std::string &Key : R.NewInCurrent)
    Out += formatStr("new        %s: no baseline entry (not gated)\n",
                     Key.c_str());
  Out += formatStr("bench_diff: %zu metrics compared, %u regressions, "
                   "%u improvements, %zu missing, %zu new\n",
                   R.Deltas.size(), R.Regressions, Improvements,
                   R.MissingInCurrent.size(), R.NewInCurrent.size());
  return Out;
}
