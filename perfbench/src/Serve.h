//===- perfbench/src/Serve.h - In-process gdpd cluster and mix --*- C++ -*-===//
//
// The docs/SERVING.md topology inside the benchmark process: two shard
// servers and one coordinator over unix sockets, plus the seeded request
// mix of serve_mixed.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Bench.h"

#include "serve/Coordinator.h"
#include "serve/Server.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Two shards and a coordinator, each pumping on its own thread. The
/// shards share the process-global PreparedProgramCache (the warm cache).
class Cluster {
public:
  Cluster() = default;
  ~Cluster() { stop(); }
  Cluster(const Cluster &) = delete;
  Cluster &operator=(const Cluster &) = delete;

  /// Boots the cluster with sockets under \p SockDir, sized so \p Clients
  /// persistent connections (to the coordinator or straight to a shard)
  /// never exhaust a server's workers. False + \p Err on failure.
  bool start(const std::string &SockDir, unsigned Clients, std::string &Err);
  /// Stops every server and joins its thread (idempotent).
  void stop();

  const gdp::support::SockAddr &coordinator() const;
  /// The shard the coordinator routes \p Req to.
  const gdp::support::SockAddr &
  shardFor(const gdp::serve::PartitionRequest &Req) const;
  /// Coordinator retry attempts so far.
  uint64_t retries() const;
  /// Requests shed by admission control, cluster-wide.
  uint64_t shed() const;

private:
  struct Member {
    std::unique_ptr<gdp::serve::Service> Svc;
    std::unique_ptr<gdp::serve::Backend> B;
    std::unique_ptr<gdp::serve::Server> Srv;
    std::thread Pump;
  };
  bool boot(const gdp::support::SockAddr &Listen,
            std::unique_ptr<gdp::serve::Backend> B,
            std::unique_ptr<gdp::serve::Service> Svc, unsigned Threads,
            std::string &Err);

  std::vector<std::unique_ptr<Member>> Members; ///< Shards, then coordinator.
  std::vector<gdp::support::SockAddr> ShardAddrs;
  gdp::serve::CoordinatorBackend *Coord = nullptr;
};

/// One serve_mixed request: a warm program (named, gen spec or inline IR)
/// under one strategy, or a never-seen gen spec.
struct MixRequest {
  bool Miss = false;
  size_t Prog = 0;    ///< Warm: index into ServeMix::Warm.
  uint64_t MissSeed = 0;
  unsigned MissOps = 0;
  gdp::StrategyKind Strategy = gdp::StrategyKind::GDP;
};

/// The strategies serve_mixed requests, in reference-pass order: those of
/// bench/serve_load's cycle (it never sends ProfileMax).
const std::vector<gdp::StrategyKind> &serveStrategies();

/// The serve_mixed request mix: bench/serve_load's six specs, the same six
/// programs as inline IR, and never-seen gen specs. The warm programs are
/// fixed; the never-seen specs and the request order come from the seed.
struct ServeMix {
  std::vector<Source> Warm;
  size_t NumInline = 0; ///< The last NumInline warm programs are inline IR.
  uint64_t Seed = 0;

  static ServeMix make(uint64_t Seed);
  /// The request behind ticket \p Ticket of the closed loop.
  MixRequest at(uint64_t Ticket) const;
  /// The never-seen spec of a miss request.
  static Source missSource(const MixRequest &R);
  gdp::serve::PartitionRequest request(const MixRequest &R) const;
};

/// The move latency of every serve request.
constexpr unsigned kServeLatency = 5;

/// Where unix sockets go, relative to the working directory.
std::string socketDir();

/// Restricts the calling thread, and every thread it starts later, to the
/// first CPU it may run on. serve_mixed runs this way: on a shared VM a
/// request's hops between threads on different CPUs wait for the host to
/// wake an idle virtual CPU, and that wait, not the program, set its
/// latency spread. False when the affinity cannot be set.
bool pinToOneCpu();

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
