//===- serve/Daemon.cpp - gdpd process lifecycle ----------------------------===//

#include "serve/Daemon.h"

#include "serve/Coordinator.h"
#include "partition/PreparedCache.h"
#include "support/FaultInjector.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace gdp;
using namespace gdp::serve;

namespace {

/// The server the signal handlers stop. Installed for the duration of one
/// runDaemon call; requestStop() only stores an atomic, so the handler is
/// async-signal-safe.
std::atomic<Server *> ActiveServer{nullptr};

void onStopSignal(int) {
  if (Server *S = ActiveServer.load(std::memory_order_relaxed))
    S->requestStop();
}

} // namespace

bool gdp::serve::parseDaemonArg(const std::string &Arg, DaemonOptions &O,
                                std::string &Err) {
  auto Value = [&](const char *Name) {
    std::string Prefix = std::string(Name) + "=";
    return Arg.rfind(Prefix, 0) == 0 ? Arg.substr(Prefix.size())
                                     : std::string();
  };
  auto Is = [&](const char *Name) {
    return Arg.rfind(std::string(Name) + "=", 0) == 0;
  };
  uint64_t N;
  if (Is("--listen")) {
    if (!support::SockAddr::parse(Value("--listen"), O.Listen, &Err))
      return false;
    O.HaveListen = true;
    return true;
  }
  if (Arg == "--coordinator") {
    O.Coordinator = true;
    return true;
  }
  if (Is("--shard")) {
    support::SockAddr A;
    if (!support::SockAddr::parse(Value("--shard"), A, &Err))
      return false;
    O.Shards.push_back(A);
    return true;
  }
  if (Is("--threads")) {
    if (!parseUnsigned(Value("--threads"), N) || N == 0 || N > 256) {
      Err = "--threads expects 1..256";
      return false;
    }
    O.Threads = static_cast<unsigned>(N);
    return true;
  }
  if (Arg == "--affinity") {
    O.Affinity = "1";
    return true;
  }
  if (Is("--affinity")) {
    O.Affinity = Value("--affinity");
    if (O.Affinity.empty())
      O.Affinity = "1";
    return true;
  }
  if (Is("--max-inflight")) {
    if (!parseUnsigned(Value("--max-inflight"), N)) {
      Err = "--max-inflight expects a number";
      return false;
    }
    O.MaxInflight = static_cast<size_t>(N);
    return true;
  }
  if (Is("--cache-cap")) {
    if (!parseUnsigned(Value("--cache-cap"), N) || N == 0) {
      Err = "--cache-cap expects a positive number";
      return false;
    }
    O.CacheCap = static_cast<size_t>(N);
    return true;
  }
  if (Is("--deadline-ms")) {
    if (!parseUnsigned(Value("--deadline-ms"), N)) {
      Err = "--deadline-ms expects a number";
      return false;
    }
    O.DefaultDeadlineMs = N;
    return true;
  }
  if (Arg == "--deterministic") {
    O.Deterministic = true;
    return true;
  }
  if (Is("--io-timeout-ms")) {
    if (!parseUnsigned(Value("--io-timeout-ms"), N) || N == 0 ||
        N > INT_MAX) {
      Err = "--io-timeout-ms expects 1..2147483647";
      return false;
    }
    O.IoTimeoutMs = static_cast<int>(N);
    return true;
  }
  if (Is("--drain-ms")) {
    if (!parseUnsigned(Value("--drain-ms"), N) || N > INT_MAX) {
      Err = "--drain-ms expects 0..2147483647";
      return false;
    }
    O.DrainMs = static_cast<int>(N);
    return true;
  }
  if (Is("--replicas")) {
    if (!parseUnsigned(Value("--replicas"), N) || N == 0 || N > 64) {
      Err = "--replicas expects 1..64";
      return false;
    }
    O.Replicas = static_cast<unsigned>(N);
    return true;
  }
  if (Is("--breaker-threshold")) {
    if (!parseUnsigned(Value("--breaker-threshold"), N) || N == 0) {
      Err = "--breaker-threshold expects a positive number";
      return false;
    }
    O.BreakerThreshold = N;
    return true;
  }
  if (Is("--breaker-cooldown-ms")) {
    if (!parseUnsigned(Value("--breaker-cooldown-ms"), N) || N == 0 ||
        N > INT_MAX) {
      Err = "--breaker-cooldown-ms expects 1..2147483647";
      return false;
    }
    O.BreakerCooldownMs = static_cast<int>(N);
    return true;
  }
  if (Is("--health-check-ms")) {
    if (!parseUnsigned(Value("--health-check-ms"), N) || N > INT_MAX) {
      Err = "--health-check-ms expects 0..2147483647 (0 disables the "
            "prober)";
      return false;
    }
    O.HealthCheckMs = static_cast<int>(N);
    return true;
  }
  Err = "unknown flag '" + Arg + "'";
  return false;
}

int gdp::serve::runDaemon(const DaemonOptions &O) {
  if (!O.HaveListen) {
    std::fprintf(stderr, "gdpd: error: --listen=ADDR is required\n");
    return 2;
  }
  if (O.Coordinator && O.Shards.empty()) {
    std::fprintf(stderr,
                 "gdpd: error: --coordinator needs at least one --shard\n");
    return 2;
  }
  if (!O.Coordinator && !O.Shards.empty()) {
    std::fprintf(stderr, "gdpd: error: --shard requires --coordinator\n");
    return 2;
  }
  if (!O.Coordinator && O.Replicas > 1) {
    std::fprintf(stderr, "gdpd: error: --replicas requires --coordinator\n");
    return 2;
  }
  if (O.Coordinator && O.Replicas > O.Shards.size()) {
    std::fprintf(stderr,
                 "gdpd: error: --replicas=%u exceeds the shard count (%zu)\n",
                 O.Replicas, O.Shards.size());
    return 2;
  }

  // Worker pinning for the serving pool: --affinity beats GDP_AFFINITY;
  // an unparsable value is a configuration failure like a bad bind.
  if (std::string Err; !support::resolveThreadAffinity(O.Affinity, &Err)) {
    std::fprintf(stderr, "gdpd: %s\n",
                 support::errorDiag(support::StatusCode::UsageError,
                                    "gdpd.affinity", Err)
                     .render()
                     .c_str());
    return 2;
  }

  if (O.CacheCap)
    PreparedProgramCache::global().setCapacity(O.CacheCap);

  ServiceOptions SvcOpt;
  SvcOpt.DefaultDeadlineMs = O.DefaultDeadlineMs;
  SvcOpt.Deterministic = O.Deterministic;
  Service Svc(SvcOpt);

  std::unique_ptr<Backend> B;
  if (O.Coordinator) {
    CoordinatorOptions CO;
    CO.TimeoutMs = O.IoTimeoutMs;
    CO.Replicas = O.Replicas;
    CO.Breaker.FailureThreshold = O.BreakerThreshold;
    CO.Breaker.OpenCooldownMs = O.BreakerCooldownMs;
    CO.HealthCheckMs = O.HealthCheckMs;
    B = std::make_unique<CoordinatorBackend>(O.Shards, CO);
  } else {
    B = std::make_unique<LocalBackend>(Svc);
  }

  ServerOptions SrvOpt;
  SrvOpt.Listen = O.Listen;
  SrvOpt.Threads = O.Threads ? O.Threads : support::threadCountFromEnv();
  SrvOpt.MaxInflight = O.MaxInflight;
  SrvOpt.IoTimeoutMs = O.IoTimeoutMs;
  SrvOpt.DrainMs = O.DrainMs;
  SrvOpt.Faults = support::FaultPlan::fromEnv();
  Server Srv(SrvOpt, Svc, *B);

  std::vector<support::Diag> Diags;
  if (!Srv.start(Diags)) {
    for (const auto &D : Diags)
      std::fprintf(stderr, "gdpd: %s\n", D.render().c_str());
    return 2;
  }

  // Readiness line: launchers (tests, CI, bench harness) wait for it and
  // parse the bound address (the kernel picks the port for ":0").
  std::printf("gdpd: %s listening on %s\n", B->role(),
              Srv.boundAddr().str().c_str());
  std::fflush(stdout);

  ActiveServer.store(&Srv, std::memory_order_relaxed);
  struct sigaction SA;
  struct sigaction OldInt, OldTerm;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  ::sigaction(SIGINT, &SA, &OldInt);
  ::sigaction(SIGTERM, &SA, &OldTerm);

  int Rc = Srv.run();

  ::sigaction(SIGINT, &OldInt, nullptr);
  ::sigaction(SIGTERM, &OldTerm, nullptr);
  ActiveServer.store(nullptr, std::memory_order_relaxed);

  std::printf("gdpd: drained (%s), served %llu requests\n",
              Rc == 0 ? "clean" : "stragglers cancelled",
              static_cast<unsigned long long>(
                  Svc.registry().getCounter("serve.requests.total")));
  std::fflush(stdout);
  return Rc;
}
