//===- serve/Service.h - Partition request execution ------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-execution core of `gdpd`, independent of any transport:
/// resolve a spec (named workload, `gen:SEED[:OPS]`, or inline IR text —
/// a served daemon never opens request-named files), prepare it through
/// the process-wide `PreparedProgramCache` (the warm cache: repeated
/// requests for the same spec share one verify+points-to+profile pass and
/// one analysis bundle — CFG, loops, def-use-derived region DFGs),
/// evaluate the requested strategy under the request's deadline budget,
/// and render the result as JSON.
///
/// Every request runs under its own telemetry shard session, which is how
/// the service attributes latency per cache hit/miss: the shard's
/// `prepared_cache.hits` counter tells whether *this* request's lookup
/// hit, and the shard then merges into the service's cumulative registry
/// (the `stats` verb / Prometheus surface) so pipeline phase timers and
/// cache counters aggregate across all requests (docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SERVE_SERVICE_H
#define GDP_SERVE_SERVICE_H

#include "serve/Wire.h"
#include "support/Budget.h"
#include "support/StatsRegistry.h"

#include <cstdint>
#include <string>

namespace gdp {
namespace serve {

/// Tuning knobs of one service instance (one `gdpd` process).
struct ServiceOptions {
  /// Deadline applied when a request carries none (0 = unlimited).
  uint64_t DefaultDeadlineMs = 0;
  /// Profiling interpreter step cap for preparation (gdptool's default).
  uint64_t MaxPrepareSteps = 200000000ULL;
  /// Zero wall-clock fields in response bodies — responses for the same
  /// request become byte-identical (the serving determinism contract).
  bool Deterministic = false;
};

/// Result of executing one partition request.
struct PartitionOutcome {
  Status S = Status::Ok;
  std::string Body; ///< JSON result on Ok, {"diags": [...]} otherwise.
  bool CacheHit = false;
};

/// Executes partition requests and accumulates serving statistics.
/// Thread-safe: the registry is internally locked and the prepared-program
/// cache handles concurrent builds, so the server may call partition()
/// from many pool workers at once.
class Service {
public:
  explicit Service(const ServiceOptions &Opt) : Opt(Opt) {}

  /// Executes \p Req. \p Drain, when non-null, cancels the evaluation
  /// budget mid-request (graceful shutdown of stragglers).
  PartitionOutcome partition(const PartitionRequest &Req,
                             support::CancelToken *Drain = nullptr);

  /// Records one served request into the latency histograms:
  /// `serve.latency_ms.<verb>` plus, for partitions,
  /// `.hit`/`.miss` cache attribution, and the
  /// `serve.requests.<verb>.<status>` counter.
  void recordRequest(Verb V, Status S, bool CacheHit, double Ms);

  /// Cumulative serving + pipeline statistics (the `stats` verb).
  telemetry::StatsRegistry &registry() { return Reg; }
  const ServiceOptions &options() const { return Opt; }

private:
  ServiceOptions Opt;
  telemetry::StatsRegistry Reg;
};

} // namespace serve
} // namespace gdp

#endif // GDP_SERVE_SERVICE_H
