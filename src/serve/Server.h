//===- serve/Server.h - gdpd accept/dispatch loop ---------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network half of `gdpd` (docs/SERVING.md): a poll-gated accept loop
/// that dispatches each connection onto the process `ThreadPool`, with
/// admission control in front (a bounded in-flight gate — connections
/// beyond `MaxInflight` are shed immediately with an `Overloaded` frame
/// and a structured diagnostic, never queued unboundedly) and a graceful
/// drain behind (stop accepting, let in-flight requests finish within the
/// drain deadline, cancel stragglers through their evaluation budgets,
/// exit).
///
/// What a request *does* is a `Backend` decision: a shard executes it
/// locally (`LocalBackend`, wrapping `Service`); a coordinator hashes the
/// request key across worker shards and merges results (Coordinator.h).
/// The server itself only speaks the protocol — framing, admission,
/// lifecycle, and the Ping/Stats/Shutdown verbs — so both roles share one
/// tested loop.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SERVE_SERVER_H
#define GDP_SERVE_SERVER_H

#include "serve/Service.h"
#include "serve/Wire.h"
#include "support/FaultInjector.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

namespace gdp {
namespace serve {

/// Executes the verbs the server cannot answer by itself. Implementations
/// must be thread-safe: the server calls them from many pool workers.
class Backend {
public:
  virtual ~Backend() = default;

  /// Executes one partition request (\p Drain cancels stragglers).
  virtual PartitionOutcome partition(const PartitionRequest &Req,
                                     support::CancelToken *Drain) = 0;

  /// Merges backend statistics into \p Into (a coordinator pulls each
  /// shard's binary snapshot here). False + diags if a source was
  /// unreachable; what was merged so far stays valid.
  virtual bool collectStats(telemetry::StatsRegistry &Into,
                            std::vector<support::Diag> &Diags) = 0;

  /// Propagates a Shutdown verb (a coordinator forwards it to every
  /// shard; a shard has nothing to forward).
  virtual void forwardShutdown() {}

  /// Role string for ping/info responses ("shard" or "coordinator").
  virtual const char *role() const = 0;
};

/// Executes partition requests in-process through a Service.
class LocalBackend : public Backend {
public:
  explicit LocalBackend(Service &Svc) : Svc(Svc) {}

  PartitionOutcome partition(const PartitionRequest &Req,
                             support::CancelToken *Drain) override {
    return Svc.partition(Req, Drain);
  }
  bool collectStats(telemetry::StatsRegistry &,
                    std::vector<support::Diag> &) override {
    return true; // Everything already lives in the service registry.
  }
  const char *role() const override { return "shard"; }

private:
  Service &Svc;
};

/// Server configuration (the gdpd flag surface).
struct ServerOptions {
  support::SockAddr Listen;
  /// True pool concurrency (maps to ThreadPool(Threads - 1); the accept
  /// loop never computes, so 1 still serves one request at a time).
  unsigned Threads = 1;
  /// Admission gate: connections handled concurrently; more are shed.
  size_t MaxInflight = 64;
  /// Per-socket I/O timeout (send/recv of one frame).
  int IoTimeoutMs = 30000;
  /// Drain deadline on shutdown: in-flight requests get this long to
  /// finish before their budgets are cancelled.
  int DrainMs = 5000;
  /// Fault-injection plan (GDP_FAULTS): the server installs a FaultScope
  /// named "serve" around the accept loop and one named "conn" around
  /// each connection, so serve.accept/serve.dispatch rules count
  /// deterministically per accept-loop / per connection.
  const support::FaultPlan *Faults = nullptr;
};

/// One serving loop. Bind with start(), then run() until a Shutdown verb
/// or requestStop() (the signal handlers' entry point) stops it.
class Server {
public:
  Server(const ServerOptions &Opt, Service &Svc, Backend &B);

  /// Binds and listens. False + diags on failure.
  bool start(std::vector<support::Diag> &Diags);

  /// Bound address (with the kernel-assigned port when Listen.Port == 0).
  const support::SockAddr &boundAddr() const;

  /// Accept/dispatch until stopped, then drain. Returns 0 on a clean
  /// drain (all in-flight requests finished), 3 if stragglers had to be
  /// cancelled.
  int run();

  /// Asks the loop to stop accepting and drain. Async-signal-safe: only
  /// sets an atomic flag, which the poll-gated accept loop observes
  /// within one poll tick.
  void requestStop() { Stop.store(true, std::memory_order_relaxed); }

  bool stopRequested() const {
    return Stop.load(std::memory_order_relaxed);
  }

private:
  void handleConnection(support::Socket Conn);
  /// Answers one decoded frame; false once the connection should close.
  bool handleFrame(support::Socket &Conn, const Frame &F);
  bool sendFrame(support::Socket &Conn, Verb V, Status S,
                 const std::string &Payload);
  std::string pingBody() const;
  std::string statsBody(StatsFormat Fmt, Status &S);

  ServerOptions Opt;
  Service &Svc;
  Backend &B;
  support::ListenSocket Listener;
  support::ThreadPool Pool;
  support::CancelToken Drain;
  std::atomic<bool> Stop{false};
  std::atomic<size_t> Inflight{0};
};

} // namespace serve
} // namespace gdp

#endif // GDP_SERVE_SERVER_H
