//===- bench/serve_load.cpp - gdpd closed-loop load generator ---------------===//
//
// Drives a gdpd cluster with concurrent closed-loop clients (each sends
// its next request the moment the previous response arrives) and reports
// throughput and latency quantiles as a machine-readable BENCH_serve.json
// (schema gdp-serve-v1, understood by bench_diff):
//
//   serve_load [--server=ADDR] [--shards=N] [--clients=N] [--requests=N]
//              [--threads-per-shard=N] [--replicas=N] [--out=FILE]
//              [--sock-dir=DIR] [--deterministic]
//              [--chaos=EVENTS --gdpd=PATH]
//
// Without --server the bench boots its own local cluster in-process: N
// shard servers plus one coordinator, all over unix sockets in
// --sock-dir (default /tmp), torn down cleanly at the end — the
// single-command serving benchmark, and the same topology the serve CI
// job builds from real gdpd processes. With --server it drives an
// already-running daemon instead and the cluster flags are ignored.
//
// The run has two phases. A serial *warmup* sends each distinct spec once
// so every shard's prepared-program cache is hot; the timed closed loop
// then measures the steady serving state. That makes the record's
// request/cache/status counts deterministic (first-touch cache misses
// race between concurrent clients otherwise), so with --deterministic —
// which zeroes the wall-clock fields (including the retry/failover
// latency fields, which are zero anyway in a chaos-free run) — the
// record is byte-stable.
//
// **Chaos mode** (--chaos, docs/SERVING.md): shards run as *real gdpd
// subprocesses* and a fault schedule kills and restarts them mid-load
// while the in-process coordinator (with --replicas replica chains,
// circuit breakers and deterministic retry) absorbs the outage. The
// grammar is comma-separated events with relative times:
//
//   --chaos=kill:1@2s,restart@4s        kill shard 1 at t=2s, restart it
//                                       (the last-killed shard) at t=4s
//   --chaos=kill:0@500ms,restart:0@1500ms
//
// The load loop runs until the last event plus a recovery tail, then a
// serial post-recovery probe asserts the cluster answers again. The
// record uses schema gdp-serve-chaos-v1 (availability: success rate,
// failover latency p99, requests lost) and the exit code is 0 only when
// every post-recovery request succeeds and the success rate is >= 99.9%.
//
// Exit code 1 if any timed request failed (shed, error, or transport) in
// normal mode, so CI's nominal-load run asserts zero sheds by
// construction. Exit code 1 too, before anything boots, for a count flag
// that is not a positive integer, more than support::MaxThreads clients,
// or more than support::MaxThreads shard threads in all.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Coordinator.h"
#include "serve/Server.h"
#include "support/Histogram.h"
#include "support/StatsRegistry.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace gdp;
using namespace gdp::serve;

namespace {

using Clock = std::chrono::steady_clock;

/// The request mix: cheap, cache-friendly specs whose keys spread across
/// shards (the coordinator routes by key hash). Deliberately small
/// programs — the bench measures the serving fabric at steady state
/// (warm prepared-program cache), not partitioning heft, and the per-
/// request partition pass is CPU-bound, so sub-millisecond specs are
/// what let a single box demonstrate six-figure req/min rates.
const char *const kSpecs[] = {
    "pegwit",    "gen:5:24",  "gen:11:24",
    "gen:17:30", "gen:23:30", "gen:5:40",
};
constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);

/// Requests cycle strategies the way a KV bench mixes reads and writes:
/// mostly the paper's GDP partitioner, with naive/unified baseline
/// requests interleaved (both are real service traffic — baselines are
/// what clients diff GDP results against).
const char *const kStrategies[] = {"gdp", "naive", "gdp", "unified"};
constexpr size_t kNumStrategies = sizeof(kStrategies) / sizeof(kStrategies[0]);

struct ClientStats {
  uint64_t Issued = 0;
  uint64_t Ok = 0;
  uint64_t CacheHits = 0;
  std::map<std::string, uint64_t> ByStatus;
  telemetry::ValueStats LatencyMs;
  telemetry::LogHistogram LatencyHist;
};

/// One in-process cluster member: a Server pumping on its own thread.
struct Member {
  std::unique_ptr<Service> Svc;
  std::unique_ptr<Backend> B;
  std::unique_ptr<Server> Srv;
  std::thread Pump;
};

/// One chaos-schedule event, times relative to load start.
struct ChaosEvent {
  bool Kill = false; ///< Kill vs. restart.
  int Shard = -1;    ///< Restart: -1 = the last-killed shard.
  double AtMs = 0;
};

/// One real gdpd worker subprocess (chaos mode).
struct ShardProc {
  pid_t Pid = -1;
  support::SockAddr Addr;
};

std::string jsonDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

/// Parses "kill:IDX@T" / "restart[:IDX]@T" with T = <num>s or <num>ms.
bool parseChaos(const std::string &Spec, unsigned Shards,
                std::vector<ChaosEvent> &Out, std::string &Err) {
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Part = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Part.empty())
      continue;
    ChaosEvent E;
    size_t At = Part.find('@');
    if (At == std::string::npos) {
      Err = "chaos event '" + Part + "' needs '@<time>'";
      return false;
    }
    std::string When = Part.substr(At + 1);
    std::string What = Part.substr(0, At);
    double Scale = 1000; // seconds by default
    if (When.size() > 2 && When.rfind("ms") == When.size() - 2) {
      Scale = 1;
      When = When.substr(0, When.size() - 2);
    } else if (!When.empty() && When.back() == 's') {
      When.pop_back();
    }
    char *End = nullptr;
    double T = std::strtod(When.c_str(), &End);
    if (When.empty() || *End != '\0' || T < 0) {
      Err = "bad chaos time in '" + Part + "'";
      return false;
    }
    E.AtMs = T * Scale;
    if (What.rfind("kill:", 0) == 0) {
      E.Kill = true;
      E.Shard = std::atoi(What.c_str() + 5);
    } else if (What == "restart") {
      E.Kill = false;
    } else if (What.rfind("restart:", 0) == 0) {
      E.Kill = false;
      E.Shard = std::atoi(What.c_str() + 8);
    } else {
      Err = "chaos event '" + Part + "' must be kill:IDX@T or "
            "restart[:IDX]@T";
      return false;
    }
    if (E.Kill && (E.Shard < 0 || E.Shard >= static_cast<int>(Shards))) {
      Err = "chaos shard index out of range in '" + Part + "'";
      return false;
    }
    Out.push_back(E);
  }
  if (Out.empty()) {
    Err = "empty chaos spec";
    return false;
  }
  return true;
}

/// fork/execs one real gdpd shard listening on \p Addr.
pid_t spawnShard(const std::string &Gdpd, const support::SockAddr &Addr,
                 unsigned Threads, size_t MaxInflight, bool Deterministic) {
  std::vector<std::string> Args = {
      Gdpd,
      "--listen=" + Addr.str(),
      formatStr("--threads=%u", Threads),
      formatStr("--max-inflight=%llu",
                static_cast<unsigned long long>(MaxInflight)),
  };
  if (Deterministic)
    Args.push_back("--deterministic");
  pid_t P = ::fork();
  if (P != 0)
    return P;
  std::vector<char *> Argv;
  for (auto &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  ::execv(Gdpd.c_str(), Argv.data());
  std::fprintf(stderr, "serve_load: cannot exec '%s'\n", Gdpd.c_str());
  ::_exit(127);
}

/// Polls connect+ping until the daemon answers (or the timeout passes).
bool waitReady(const support::SockAddr &Addr, int TimeoutMs) {
  auto End = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (Clock::now() < End) {
    Client C;
    std::string Info;
    if (C.connect(Addr, 200, nullptr) && C.ping(Info, nullptr))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

} // namespace

int main(int argc, char **argv) {
  std::string ServerAddr, OutPath = "BENCH_serve.json", SockDir = "/tmp";
  std::string ChaosSpec, GdpdPath;
  unsigned Shards = 4, Clients = 8, ThreadsPerShard = 2, Replicas = 1;
  uint64_t Requests = 2000;
  bool Deterministic = false;
  auto Count = [](const std::string &Arg, size_t Prefix, unsigned &Out) {
    if (parsePositive(Arg.substr(Prefix), Out))
      return true;
    std::fprintf(stderr, "serve_load: %s needs a positive integer\n",
                 Arg.substr(0, Prefix - 1).c_str());
    return false;
  };
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    bool Ok = true;
    if (Arg.rfind("--server=", 0) == 0)
      ServerAddr = Arg.substr(9);
    else if (Arg.rfind("--shards=", 0) == 0)
      Ok = Count(Arg, 9, Shards);
    else if (Arg.rfind("--clients=", 0) == 0)
      Ok = Count(Arg, 10, Clients);
    else if (Arg.rfind("--requests=", 0) == 0) {
      Ok = parseUnsigned(Arg.substr(11), Requests) && Requests > 0;
      if (!Ok)
        std::fprintf(stderr, "serve_load: --requests needs a positive "
                             "integer\n");
    } else if (Arg.rfind("--threads-per-shard=", 0) == 0)
      Ok = Count(Arg, 20, ThreadsPerShard);
    else if (Arg.rfind("--replicas=", 0) == 0)
      Ok = Count(Arg, 11, Replicas);
    else if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else if (Arg.rfind("--sock-dir=", 0) == 0)
      SockDir = Arg.substr(11);
    else if (Arg.rfind("--chaos=", 0) == 0)
      ChaosSpec = Arg.substr(8);
    else if (Arg.rfind("--gdpd=", 0) == 0)
      GdpdPath = Arg.substr(7);
    else if (Arg == "--deterministic")
      Deterministic = true;
    else {
      std::fprintf(stderr, "serve_load: unknown flag '%s'\n", Arg.c_str());
      return 1;
    }
    if (!Ok)
      return 1;
  }
  if (Clients > support::MaxThreads ||
      static_cast<uint64_t>(Shards) * ThreadsPerShard > support::MaxThreads) {
    std::fprintf(stderr,
                 "serve_load: at most %u clients and %u shard threads "
                 "(--shards x --threads-per-shard)\n",
                 support::MaxThreads, support::MaxThreads);
    return 1;
  }
  if (Replicas > Shards) {
    std::fprintf(stderr, "serve_load: --replicas exceeds --shards\n");
    return 1;
  }
  const bool ChaosMode = !ChaosSpec.empty();
  std::vector<ChaosEvent> Events;
  if (ChaosMode) {
    std::string Err;
    if (!ServerAddr.empty()) {
      std::fprintf(stderr,
                   "serve_load: --chaos drives its own cluster; drop "
                   "--server\n");
      return 1;
    }
    if (GdpdPath.empty()) {
      std::fprintf(stderr, "serve_load: --chaos needs --gdpd=PATH (real "
                           "shard processes get killed and restarted)\n");
      return 1;
    }
    if (!parseChaos(ChaosSpec, Shards, Events, Err)) {
      std::fprintf(stderr, "serve_load: --chaos: %s\n", Err.c_str());
      return 1;
    }
  }

  // Chaos-tuned coordinator: fast failure detection, sub-second breaker
  // recovery. Nominal runs keep the defaults (whose counters all stay 0
  // without faults, preserving record byte-stability).
  CoordinatorOptions CoordOpt;
  CoordOpt.Replicas = Replicas;
  if (ChaosMode) {
    CoordOpt.TimeoutMs = 2000;
    CoordOpt.Breaker.OpenCooldownMs = 500;
    CoordOpt.HealthCheckMs = 100;
  }

  // Boot the cluster unless an external server was given. Chaos mode
  // spawns the shards as real gdpd subprocesses (they get SIGKILLed);
  // otherwise shards run in-process.
  std::vector<Member> Cluster;
  std::vector<ShardProc> Procs;
  CoordinatorBackend *Coord = nullptr;
  support::SockAddr Target;
  size_t ShardMaxInflight = Clients * 2 + 8; // Nominal load must never shed.
  auto boot = [&](const support::SockAddr &Listen, std::unique_ptr<Backend> B,
                  std::unique_ptr<Service> Svc, unsigned Threads) -> bool {
    Member M;
    M.Svc = std::move(Svc);
    M.B = std::move(B);
    ServerOptions SO;
    SO.Listen = Listen;
    SO.Threads = Threads;
    SO.MaxInflight = ShardMaxInflight;
    M.Srv = std::make_unique<Server>(SO, *M.Svc, *M.B);
    std::vector<support::Diag> Diags;
    if (!M.Srv->start(Diags)) {
      for (const auto &D : Diags)
        std::fprintf(stderr, "serve_load: %s\n", D.render().c_str());
      return false;
    }
    Server *S = M.Srv.get();
    M.Pump = std::thread([S] { S->run(); });
    Cluster.push_back(std::move(M));
    return true;
  };
  auto Teardown = [&] {
    for (auto &M : Cluster)
      M.Srv->requestStop();
    for (auto &M : Cluster)
      if (M.Pump.joinable())
        M.Pump.join();
    for (auto &P : Procs)
      if (P.Pid > 0) {
        ::kill(P.Pid, SIGTERM);
        int St = 0;
        ::waitpid(P.Pid, &St, 0);
        P.Pid = -1;
      }
  };

  if (ServerAddr.empty()) {
    std::vector<support::SockAddr> ShardAddrs;
    ServiceOptions SvcOpt;
    SvcOpt.Deterministic = Deterministic;
    for (unsigned I = 0; I != Shards; ++I) {
      support::SockAddr A;
      A.IsUnix = true;
      A.Path = formatStr("%s/gdp-serve-load-%d-s%u.sock", SockDir.c_str(),
                         static_cast<int>(::getpid()), I);
      if (ChaosMode) {
        ShardProc P;
        P.Addr = A;
        P.Pid = spawnShard(GdpdPath, A, ThreadsPerShard, ShardMaxInflight,
                           Deterministic);
        Procs.push_back(P);
        if (P.Pid < 0 || !waitReady(A, 10000)) {
          std::fprintf(stderr, "serve_load: shard %u (%s) never became "
                               "ready\n",
                       I, A.str().c_str());
          Teardown();
          return 1;
        }
      } else {
        auto Svc = std::make_unique<Service>(SvcOpt);
        auto B = std::make_unique<LocalBackend>(*Svc);
        if (!boot(A, std::move(B), std::move(Svc), ThreadsPerShard)) {
          Teardown();
          return 1;
        }
        A = Cluster.back().Srv->boundAddr();
      }
      ShardAddrs.push_back(A);
    }
    support::SockAddr CA;
    CA.IsUnix = true;
    CA.Path = formatStr("%s/gdp-serve-load-%d-coord.sock", SockDir.c_str(),
                        static_cast<int>(::getpid()));
    auto CoordSvc = std::make_unique<Service>(SvcOpt);
    auto CoordB = std::make_unique<CoordinatorBackend>(ShardAddrs, CoordOpt);
    Coord = CoordB.get();
    // Each persistent client connection pins one pool worker for the whole
    // run, and the Server's pool has Threads-1 workers: size for all
    // clients plus the warmup connection.
    if (!boot(CA, std::move(CoordB), std::move(CoordSvc),
              /*Threads=*/Clients + 2)) {
      Teardown();
      return 1;
    }
    Target = Cluster.back().Srv->boundAddr();
  } else {
    std::string Err;
    if (!support::SockAddr::parse(ServerAddr, Target, &Err)) {
      std::fprintf(stderr, "serve_load: %s\n", Err.c_str());
      return 1;
    }
  }

  auto makeRequest = [](size_t I) {
    PartitionRequest Req;
    Req.Spec = kSpecs[I % kNumSpecs];
    Req.Strategy = kStrategies[I % kNumStrategies];
    return Req;
  };

  // Warmup: one serial request per distinct spec primes every shard's
  // prepared-program cache, so the timed loop measures steady state.
  {
    Client C;
    std::vector<support::Diag> Diags;
    if (!C.connect(Target, 30000, &Diags)) {
      for (const auto &D : Diags)
        std::fprintf(stderr, "serve_load: %s\n", D.render().c_str());
      Teardown();
      return 1;
    }
    for (size_t I = 0; I != kNumSpecs; ++I) {
      std::string Body;
      Status S = C.partition(makeRequest(I), Body, nullptr);
      if (S != Status::Ok) {
        std::fprintf(stderr, "serve_load: warmup request '%s' answered %s\n",
                     kSpecs[I % kNumSpecs], statusName(S));
        Teardown();
        return 1;
      }
    }
  }

  // Chaos schedule bounds the load window: last event plus a recovery
  // tail long enough for a breaker cooldown, a health probe and slack.
  double LoadForMs = 0;
  if (ChaosMode) {
    for (const auto &E : Events)
      if (E.AtMs > LoadForMs)
        LoadForMs = E.AtMs;
    LoadForMs += CoordOpt.Breaker.OpenCooldownMs + 1500;
  }

  // The timed closed loop: a shared ticket counter hands out request
  // indices; each client drives its persistent connection flat out. In
  // chaos mode the loop is time-bound instead of ticket-bound, and a
  // scheduler thread executes the kill/restart events meanwhile.
  std::atomic<uint64_t> Next{0};
  std::atomic<int> RestartFailures{0};
  std::vector<ClientStats> PerClient(Clients);
  std::vector<std::thread> Workers;
  auto T0 = Clock::now();
  auto LoadEnd = T0 + std::chrono::milliseconds(
                          static_cast<int64_t>(LoadForMs));
  std::thread ChaosThread;
  if (ChaosMode)
    ChaosThread = std::thread([&] {
      int LastKilled = -1;
      for (const auto &E : Events) {
        std::this_thread::sleep_until(
            T0 + std::chrono::duration<double, std::milli>(E.AtMs));
        if (E.Kill) {
          ShardProc &P = Procs[static_cast<size_t>(E.Shard)];
          std::fprintf(stderr, "serve_load: chaos: SIGKILL shard %d "
                               "(pid %d)\n",
                       E.Shard, static_cast<int>(P.Pid));
          ::kill(P.Pid, SIGKILL);
          int St = 0;
          ::waitpid(P.Pid, &St, 0);
          P.Pid = -1;
          LastKilled = E.Shard;
        } else {
          int I = E.Shard >= 0 ? E.Shard : LastKilled;
          if (I < 0 || I >= static_cast<int>(Procs.size())) {
            std::fprintf(stderr, "serve_load: chaos: restart without a "
                                 "prior kill\n");
            RestartFailures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          ShardProc &P = Procs[static_cast<size_t>(I)];
          P.Pid = spawnShard(GdpdPath, P.Addr, ThreadsPerShard,
                             ShardMaxInflight, Deterministic);
          bool Ready = P.Pid > 0 && waitReady(P.Addr, 10000);
          std::fprintf(stderr, "serve_load: chaos: restarted shard %d "
                               "(pid %d, %s)\n",
                       I, static_cast<int>(P.Pid),
                       Ready ? "ready" : "NOT READY");
          if (!Ready)
            RestartFailures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (unsigned W = 0; W != Clients; ++W) {
    Workers.emplace_back([&, W] {
      ClientStats &St = PerClient[W];
      Client C;
      if (!C.connect(Target, 30000, nullptr)) {
        St.ByStatus["transport_error"] += Requests ? 1 : 0;
        return;
      }
      for (;;) {
        uint64_t I = Next.fetch_add(1, std::memory_order_relaxed);
        if (ChaosMode ? Clock::now() >= LoadEnd : I >= Requests)
          return;
        ++St.Issued;
        auto R0 = Clock::now();
        std::string Body;
        Status S = C.partition(makeRequest(static_cast<size_t>(I)), Body,
                               nullptr);
        double Ms =
            std::chrono::duration<double, std::milli>(Clock::now() - R0)
                .count();
        St.ByStatus[statusName(S)] += 1;
        if (S == Status::Ok) {
          ++St.Ok;
          if (Body.find("\"cache\": \"hit\"") != std::string::npos)
            ++St.CacheHits;
          St.LatencyMs.add(Ms);
          St.LatencyHist.add(Ms);
        } else if (!C.connected() && !C.connect(Target, 30000, nullptr))
          return; // Server gone; remaining tickets count as missing.
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  if (ChaosThread.joinable())
    ChaosThread.join();
  double WallSec = std::chrono::duration<double>(Clock::now() - T0).count();

  // Post-recovery probe (chaos): with every shard back and the breaker
  // reopened, the cluster must answer every spec again — zero residue.
  uint64_t PostReq = 0, PostOk = 0;
  if (ChaosMode) {
    Client C;
    if (C.connect(Target, 30000, nullptr))
      for (size_t I = 0; I != kNumSpecs; ++I) {
        ++PostReq;
        std::string Body;
        if (C.partition(makeRequest(I), Body, nullptr) == Status::Ok)
          ++PostOk;
      }
    else
      PostReq = kNumSpecs; // All missed: the coordinator itself is gone.
  }

  // Coordinator-side fault-tolerance counters, read in-process before
  // teardown (zero when driving an external server).
  uint64_t Retries = 0, Failovers = 0, TransportErrs = 0;
  uint64_t BrOpen = 0, BrClose = 0, BrReject = 0, BrHalfOpen = 0;
  uint64_t BrProbeOk = 0, BrProbeFail = 0;
  double FailoverP99 = 0, FailoverMean = 0;
  if (Coord) {
    const telemetry::StatsRegistry &R = Coord->localStats();
    Retries = R.getCounter("serve.retry.attempts");
    Failovers = R.getCounter("serve.failover.total");
    TransportErrs = R.getCounter("serve.retry.transport_errors");
    BrOpen = R.getCounter("serve.breaker.open");
    BrClose = R.getCounter("serve.breaker.close");
    BrReject = R.getCounter("serve.breaker.rejected");
    BrHalfOpen = R.getCounter("serve.breaker.half_open");
    BrProbeOk = R.getCounter("serve.breaker.probe.ok");
    BrProbeFail = R.getCounter("serve.breaker.probe.fail");
    FailoverP99 = R.quantile("serve.failover.latency_ms", 0.99);
    FailoverMean = R.getValue("serve.failover.latency_ms").mean();
  }
  Teardown();

  // Merge in fixed client order (determinism contract).
  ClientStats Total;
  for (const ClientStats &St : PerClient) {
    Total.Issued += St.Issued;
    Total.Ok += St.Ok;
    Total.CacheHits += St.CacheHits;
    for (const auto &[K, V] : St.ByStatus)
      Total.ByStatus[K] += V;
    Total.LatencyMs.merge(St.LatencyMs);
    Total.LatencyHist.merge(St.LatencyHist);
  }
  uint64_t Answered = 0;
  for (const auto &[K, V] : Total.ByStatus)
    Answered += V;

  double Rps = WallSec > 0 ? static_cast<double>(Total.Ok) / WallSec : 0;
  auto Z = [&](double V) { return Deterministic ? 0.0 : V; };
  auto U64 = [](uint64_t V) {
    return formatStr("%llu", static_cast<unsigned long long>(V));
  };

  std::string S;
  int Exit;
  if (ChaosMode) {
    uint64_t Lost = Total.Issued - Answered;
    uint64_t Failed = Total.Issued - Total.Ok;
    double SuccessRate =
        Total.Issued
            ? static_cast<double>(Total.Ok) / static_cast<double>(Total.Issued)
            : 0;
    S = "{\n  \"schema\": \"gdp-serve-chaos-v1\",\n";
    S += formatStr("  \"shards\": %u,\n  \"replicas\": %u,\n"
                   "  \"clients\": %u,\n",
                   Shards, Replicas, Clients);
    S += "  \"events\": [";
    for (size_t I = 0; I != Events.size(); ++I) {
      const ChaosEvent &E = Events[I];
      S += I ? ", " : "";
      S += formatStr("{\"kind\": \"%s\", \"shard\": %d, \"at_ms\": %s}",
                     E.Kill ? "kill" : "restart", E.Shard,
                     jsonDouble(E.AtMs).c_str());
    }
    S += "],\n";
    S += "  \"issued\": " + U64(Total.Issued) + ",\n";
    S += "  \"ok\": " + U64(Total.Ok) + ",\n";
    S += "  \"failed\": " + U64(Failed) + ",\n";
    S += "  \"lost\": " + U64(Lost) + ",\n";
    S += "  \"success_rate\": " + jsonDouble(SuccessRate) + ",\n";
    S += "  \"by_status\": {";
    bool First = true;
    for (const auto &[K, V] : Total.ByStatus) {
      S += First ? "" : ", ";
      S += formatStr("\"%s\": %llu", K.c_str(),
                     static_cast<unsigned long long>(V));
      First = false;
    }
    S += "},\n";
    S += "  \"retries\": " + U64(Retries) + ",\n";
    S += "  \"failovers\": " + U64(Failovers) + ",\n";
    S += "  \"transport_errors\": " + U64(TransportErrs) + ",\n";
    S += "  \"breaker\": {\"opened\": " + U64(BrOpen) +
         ", \"closed\": " + U64(BrClose) + ", \"rejected\": " + U64(BrReject) +
         ", \"half_open\": " + U64(BrHalfOpen) +
         ", \"probe_ok\": " + U64(BrProbeOk) +
         ", \"probe_fail\": " + U64(BrProbeFail) + "},\n";
    S += "  \"failover_latency_ms\": {\"mean\": " + jsonDouble(Z(FailoverMean)) +
         ", \"p99\": " + jsonDouble(Z(FailoverP99)) + "},\n";
    S += "  \"post_recovery\": {\"requests\": " + U64(PostReq) +
         ", \"ok\": " + U64(PostOk) + "},\n";
    S += "  \"wall_sec\": " + jsonDouble(Z(WallSec)) + ",\n";
    S += "  \"throughput_rps\": " + jsonDouble(Z(Rps)) + "\n}\n";
    bool Pass = PostOk == PostReq && SuccessRate >= 0.999 &&
                RestartFailures.load() == 0;
    Exit = Pass ? 0 : 1;
  } else {
    uint64_t Failed = Answered - Total.Ok + (Requests - Answered);
    S = "{\n  \"schema\": \"gdp-serve-v1\",\n";
    S += formatStr("  \"shards\": %u,\n  \"clients\": %u,\n", Shards,
                   Clients);
    S += formatStr("  \"replicas\": %u,\n", Replicas);
    S += formatStr("  \"requests\": %llu,\n",
                   static_cast<unsigned long long>(Requests));
    S += formatStr("  \"warmup_requests\": %llu,\n",
                   static_cast<unsigned long long>(kNumSpecs));
    S += formatStr("  \"ok\": %llu,\n",
                   static_cast<unsigned long long>(Total.Ok));
    S += formatStr("  \"failed\": %llu,\n",
                   static_cast<unsigned long long>(Failed));
    S += formatStr("  \"cache_hits\": %llu,\n",
                   static_cast<unsigned long long>(Total.CacheHits));
    S += "  \"by_status\": {";
    bool First = true;
    for (const auto &[K, V] : Total.ByStatus) {
      S += First ? "" : ", ";
      S += formatStr("\"%s\": %llu", K.c_str(),
                     static_cast<unsigned long long>(V));
      First = false;
    }
    S += "},\n";
    // Fault-tolerance counters: all zero in a healthy run (so the
    // deterministic record stays byte-stable); the latency quantile is
    // wall-clock and explicitly zeroed under --deterministic.
    S += "  \"retries\": " + U64(Retries) + ",\n";
    S += "  \"failovers\": " + U64(Failovers) + ",\n";
    S += "  \"failover_latency_p99_ms\": " + jsonDouble(Z(FailoverP99)) +
         ",\n";
    S += "  \"wall_sec\": " + jsonDouble(Z(WallSec)) + ",\n";
    S += "  \"throughput_rps\": " + jsonDouble(Z(Rps)) + ",\n";
    S += "  \"throughput_rpm\": " + jsonDouble(Z(Rps * 60)) + ",\n";
    S += "  \"latency_ms\": {";
    S += "\"mean\": " + jsonDouble(Z(Total.LatencyMs.mean())) + ", ";
    S += "\"p50\": " + jsonDouble(Z(Total.LatencyHist.quantile(0.5))) + ", ";
    S += "\"p90\": " + jsonDouble(Z(Total.LatencyHist.quantile(0.9))) + ", ";
    S += "\"p99\": " + jsonDouble(Z(Total.LatencyHist.quantile(0.99))) + ", ";
    S += "\"max\": " + jsonDouble(Z(Total.LatencyMs.Max)) + "}\n}\n";
    Exit = Failed == 0 ? 0 : 1;
  }

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "serve_load: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << S;
  std::printf("%s", S.c_str());
  if (ChaosMode)
    std::printf("serve_load: chaos: %llu issued, %llu ok, %llu retries, "
                "%llu failovers, post-recovery %llu/%llu — %s\n",
                static_cast<unsigned long long>(Total.Issued),
                static_cast<unsigned long long>(Total.Ok),
                static_cast<unsigned long long>(Retries),
                static_cast<unsigned long long>(Failovers),
                static_cast<unsigned long long>(PostOk),
                static_cast<unsigned long long>(PostReq),
                Exit == 0 ? "PASS" : "FAIL");
  else
    std::printf("serve_load: %llu ok / %llu failed, %s req/s (%s req/min), "
                "p50 %.2fms p99 %.2fms\n",
                static_cast<unsigned long long>(Total.Ok),
                static_cast<unsigned long long>(Answered - Total.Ok +
                                                (Requests - Answered)),
                jsonDouble(Rps).c_str(), jsonDouble(Rps * 60).c_str(),
                Total.LatencyHist.quantile(0.5),
                Total.LatencyHist.quantile(0.99));
  return Exit;
}
