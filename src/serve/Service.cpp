//===- serve/Service.cpp - Partition request execution ----------------------===//

#include "serve/Service.h"

#include "gen/Generator.h"
#include "ir/IRParser.h"
#include "partition/Pipeline.h"
#include "partition/PreparedCache.h"
#include "support/Json.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <memory>
#include <vector>

using namespace gdp;
using namespace gdp::serve;
using support::Diag;
using support::errorDiag;
using support::StatusCode;

namespace {

/// Builds the program named by \p Req without touching the filesystem:
/// inline IR parses directly; otherwise the spec must be a gen: spec or a
/// named workload. Null (with \p Diags filled) on failure.
std::unique_ptr<Program> buildRequestProgram(const PartitionRequest &Req,
                                             std::vector<Diag> &Diags) {
  if (Req.InlineIR) {
    ParseResult R = parseProgram(Req.Spec);
    if (!R.ok()) {
      Diags.push_back(R.D);
      return nullptr;
    }
    return std::move(R.P);
  }
  if (Req.Spec.rfind("gen:", 0) == 0) {
    gen::GenOptions GO;
    if (!gen::parseGenSpec(Req.Spec, GO)) {
      Diags.push_back(errorDiag(StatusCode::InputError, "serve.load",
                                "malformed generated-program spec "
                                "(expected gen:SEED[:OPS])")
                          .with("spec", Req.Spec));
      return nullptr;
    }
    auto P = gen::generateProgram(GO);
    if (!P)
      Diags.push_back(errorDiag(StatusCode::Internal, "serve.load",
                                "program generation failed")
                          .with("spec", Req.Spec));
    return P;
  }
  if (auto P = buildWorkload(Req.Spec))
    return P;
  Diags.push_back(errorDiag(StatusCode::InputError, "serve.load",
                            "unknown workload (the daemon serves named "
                            "workloads, gen:SEED[:OPS] specs and inline "
                            "IR only — not files)")
                      .with("spec", Req.Spec));
  return nullptr;
}

} // namespace

PartitionOutcome Service::partition(const PartitionRequest &Req,
                                    support::CancelToken *Drain) {
  PartitionOutcome Out;

  StrategyKind Strategy;
  if (!parseStrategyName(Req.Strategy, Strategy)) {
    Out.S = Status::BadRequest;
    Out.Body = diagsBody({errorDiag(StatusCode::UsageError, "serve.request",
                                    "unknown strategy (expected gdp, "
                                    "profilemax, naive or unified)")
                              .with("strategy", Req.Strategy)});
    return Out;
  }

  // The per-request telemetry shard: the prepared-program cache and the
  // pipeline record into it, and its counters attribute *this* request
  // (hit vs. miss) before the shard folds into the cumulative registry.
  telemetry::TelemetrySession Shard;
  support::Budget Budget;
  uint64_t DeadlineMs = Req.DeadlineMs ? Req.DeadlineMs : Opt.DefaultDeadlineMs;
  if (DeadlineMs)
    Budget.WallMsLimit = static_cast<double>(DeadlineMs);
  Budget.Cancel = Drain;

  std::shared_ptr<const CachedPreparation> Prep;
  PipelineResult R;
  {
    telemetry::ScopedSession Scope(Shard);
    // A program that fails to load caches as a failed preparation that
    // carries the load diagnostics, so a repeated bad request is a hit.
    Prep = PreparedProgramCache::global().get(
        Req.key(), /*CaptureTrace=*/false,
        [&Req](std::vector<Diag> &LoadDiags) {
          return buildRequestProgram(Req, LoadDiags);
        });
    Out.CacheHit = Shard.stats().getCounter("prepared_cache.hits") > 0;

    if (!Prep->PP.Ok) {
      Out.S = Status::InputError;
      std::vector<Diag> Diags = Prep->PP.Diags;
      if (Diags.empty())
        Diags.push_back(errorDiag(StatusCode::InputError, "serve.prepare",
                                  Prep->PP.Error.empty()
                                      ? "program preparation failed"
                                      : Prep->PP.Error));
      Out.Body = diagsBody(Diags);
    } else {
      PipelineOptions PO;
      PO.Strategy = Strategy;
      PO.NumClusters = Req.Clusters;
      PO.MoveLatency = Req.MoveLatency;
      PO.EvalBudget = &Budget;
      R = runStrategy(Prep->PP, PO);
    }
  }
  Reg.mergeFrom(Shard.stats());
  if (!Out.Body.empty())
    return Out;

  if (R.Failed) {
    // Budget exhaustion surfaces as a *warning* diagnostic on a failed
    // result (best-so-far semantics), so check for it before the generic
    // first-error mapping.
    Out.S = Status::InternalError;
    for (const Diag &D : R.Diags) {
      if (D.Code == StatusCode::BudgetExhausted ||
          D.Code == StatusCode::Cancelled) {
        Out.S = Status::DeadlineExceeded;
        break;
      }
      if (D.Sev == support::Severity::Error && D.Code != StatusCode::Ok) {
        Out.S = statusForCode(D.Code);
        break;
      }
    }
    Out.Body = diagsBody(R.Diags);
    return Out;
  }

  double PrepareSec = Opt.Deterministic ? 0 : Prep->PP.PrepareSeconds;
  double PartitionSec =
      Opt.Deterministic ? 0 : partitionSeconds(Shard.stats());
  std::string Body = "{";
  Body += formatStr("\"spec\": \"%s\"",
                    support::json::escape(Req.key()).c_str());
  Body += formatStr(", \"strategy\": \"%s\"",
                    strategyName(R.RequestedStrategy));
  Body += formatStr(", \"effective_strategy\": \"%s\"",
                    strategyName(R.EffectiveStrategy));
  Body += formatStr(", \"clusters\": %u, \"move_latency\": %u", Req.Clusters,
                    Req.MoveLatency);
  Body += formatStr(", \"cycles\": %llu",
                    static_cast<unsigned long long>(R.Cycles));
  Body += formatStr(", \"dynamic_moves\": %llu",
                    static_cast<unsigned long long>(R.DynamicMoves));
  Body += formatStr(", \"static_moves\": %llu",
                    static_cast<unsigned long long>(R.StaticMoves));
  Body += formatStr(", \"degraded\": %s, \"fallbacks\": %u",
                    R.Degraded ? "true" : "false", R.Fallbacks);
  Body += formatStr(", \"cache\": \"%s\"", Out.CacheHit ? "hit" : "miss");
  Body += formatStr(", \"prepare_sec\": %.6f, \"partition_sec\": %.6f",
                    PrepareSec, PartitionSec);
  Body += ", \"diags\": " + support::diagsToJson(R.Diags);
  Body += "}\n";
  Out.S = Status::Ok;
  Out.Body = std::move(Body);
  return Out;
}

void Service::recordRequest(Verb V, Status S, bool CacheHit, double Ms) {
  Reg.addCounter("serve.requests.total", 1);
  Reg.addCounter(formatStr("serve.requests.%s.%s", verbName(V),
                           statusName(S)),
                 1);
  Reg.recordValue(formatStr("serve.latency_ms.%s", verbName(V)), Ms);
  if (V == Verb::Partition)
    Reg.recordValue(formatStr("serve.latency_ms.partition.%s",
                              CacheHit ? "hit" : "miss"),
                    Ms);
}
