//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the robustness layer
/// (docs/ROBUSTNESS.md): named *sites* in the pipeline call
/// `faultAt("site")` and take their natural failure path when it returns
/// true. Which hits fire is configured by a `FaultPlan`, parsed from the
/// `GDP_FAULTS` environment variable or a `--faults=` flag:
///
///   GDP_FAULTS=rhop.lock:1                // first hit per scope fails
///   GDP_FAULTS=graph.coarsen:1+           // every hit from the 1st on
///   GDP_FAULTS=sched.estimate:2@pegwit    // 2nd hit, only in scopes whose
///                                         // name contains "pegwit"
///   GDP_FAULTS=rhop.lock:1+,sim.bus:1     // comma-separated rules
///
/// **Determinism contract.** Hits are counted per `FaultScope`, an RAII
/// thread-local installed around one logical unit of work (one pipeline
/// evaluation, one CLI command). The evaluation driver (sim/Evaluate.h)
/// installs one scope per cell under the caller's name (the bench
/// harness's "bench|strategy|latN", gdptool's
/// "gdptool|verb|spec|strategy"), so a rule fires in exactly the same
/// cells at any thread count — fault-mode outputs are bit-identical at 1,
/// 2 or 8 threads (RobustnessTests proves it). With no scope installed
/// `faultAt` is a single thread-local pointer check and nothing can fire.
///
/// Registered sites (see faultSites(); docs/ROBUSTNESS.md has the
/// semantics of each):
///   graph.coarsen  — GDP's program-graph coarsen+cut fails (placement
///                    infeasible; the degradation chain takes over)
///   rhop.lock      — constructing RHOP's lock map from a placement fails
///   sched.estimate — the final schedule estimate fails (evaluation fails)
///   sim.bus        — the cycle simulator's bus model fails
///   pool.task      — an evaluation-driver cell throws (FaultInjectedError)
///   serve.accept   — gdpd's accept loop fails a newly accepted connection
///                    (the client gets an internal-error frame)
///   serve.dispatch — gdpd's frame dispatch fails one request and drops
///                    that connection (the daemon itself stays up)
///   serve.conn     — an outbound connect (coordinator → shard, client →
///                    server) fails before reaching the network
///   serve.reply    — the server drops a response frame on the floor and
///                    closes the connection (the client sees EOF — the
///                    coordinator's retry/failover path must absorb it)
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_FAULTINJECTOR_H
#define GDP_SUPPORT_FAULTINJECTOR_H

#include "support/Status.h"

#include <stdexcept>
#include <string>
#include <vector>

namespace gdp {
namespace support {

/// One parsed injection rule: fire on hit #Ordinal of Site (1-based,
/// counted per scope), or on every hit from #Ordinal on when Sticky, but
/// only in scopes whose name contains ScopeFilter (empty = everywhere).
struct FaultRule {
  std::string Site;
  uint64_t Ordinal = 1;
  bool Sticky = false;
  std::string ScopeFilter;
};

/// A parsed, immutable injection configuration shared by every scope.
class FaultPlan {
public:
  std::vector<FaultRule> Rules;

  bool empty() const { return Rules.empty(); }

  /// Parses "site:n[+][@filter],..." . Returns false and sets \p Err on a
  /// malformed spec (unknown sites are diagnosed too — a typo must not
  /// silently disable a fault run).
  static bool parse(const std::string &Spec, FaultPlan &Out,
                    std::string *Err);

  /// The process-wide plan from GDP_FAULTS, parsed once; null when unset.
  /// Exits with a rendered diagnostic on a malformed value (a fault sweep
  /// must never silently run faultless).
  static const FaultPlan *fromEnv();
};

/// RAII: installs a fault-counting scope for the current thread. Nestable;
/// the innermost scope counts. Passing a null plan installs nothing (the
/// scope is inert), so callers can unconditionally create one.
class FaultScope {
public:
  FaultScope(const FaultPlan *Plan, std::string Name);
  ~FaultScope();
  FaultScope(const FaultScope &) = delete;
  FaultScope &operator=(const FaultScope &) = delete;

  /// Opaque per-scope hit-counter record; defined in the .cpp (public so
  /// the file-scope thread_local there can name it).
  struct State;

private:
  State *Prev = nullptr;
  State *Mine = nullptr;
};

/// Records one hit of \p Site in the innermost scope on this thread and
/// returns true when an injection rule says this hit fails. False (and
/// free) when no scope is installed.
bool faultAt(const char *Site);

/// The registry of valid site names, for --faults validation, the CI
/// sweep, and the docs.
const std::vector<std::string> &faultSites();

/// The standard diagnostic for an injected failure at \p Site.
Diag injectedFaultDiag(const char *Site);

/// Thrown by evaluation-driver cells when the `pool.task` site fires;
/// proves the driver isolates a poisoned cell (sim/Evaluate.h catches it
/// per cell and turns it into a Failed result).
class FaultInjectedError : public std::runtime_error {
public:
  explicit FaultInjectedError(const std::string &Site)
      : std::runtime_error("injected fault at " + Site), Site(Site) {}
  const std::string Site;
};

} // namespace support
} // namespace gdp

#endif // GDP_SUPPORT_FAULTINJECTOR_H
