//===- perfbench/src/Serve.cpp - serve_mixed ------------------------------===//
//
// serve_mixed drives an in-process coordinator that routes to two shards
// over unix sockets (the docs/SERVING.md topology). Four persistent
// clients run a closed loop: each sends its next request only when the
// previous reply arrived, as `gdptool request` and build jobs do. With
// four clients over two serialized shard connections, requests queue in
// the coordinator.
//
// The warm requests follow bench/serve_load: its six specs, drawn
// uniformly, under its gdp:naive:gdp:unified strategy cycle, drawn with
// the same shares. The inline-IR and never-seen shares are assumptions.
//
// Every Ok response is checked against an in-process runStrategy
// reference for its (spec, strategy, latency), computed with
// prepareProgram directly so the reference never warms the global cache.
// The warm-set references are recomputed in passes between the serving
// windows; their median time is this workload's compile_s, and their
// simulation its sim_s.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "Checks.h"

#include "partition/PreparedCache.h"
#include "serve/Client.h"
#include "sim/Simulator.h"
#include "support/StrUtil.h"

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <utility>

using namespace gdp;
using namespace gdp::serve;

namespace perfbench {

// -- Cluster --------------------------------------------------------------

bool Cluster::boot(const support::SockAddr &Listen, std::unique_ptr<Backend> B,
                   std::unique_ptr<Service> Svc, unsigned Threads,
                   std::string &Err) {
  auto M = std::make_unique<Member>();
  M->Svc = std::move(Svc);
  M->B = std::move(B);
  ServerOptions SO;
  SO.Listen = Listen;
  SO.Threads = Threads;
  SO.MaxInflight = 64;
  M->Srv = std::make_unique<Server>(SO, *M->Svc, *M->B);
  std::vector<support::Diag> Diags;
  if (!M->Srv->start(Diags)) {
    Err = Diags.empty() ? "server failed to start" : Diags.front().render();
    return false;
  }
  Server *S = M->Srv.get();
  M->Pump = std::thread([S] { S->run(); });
  Members.push_back(std::move(M));
  return true;
}

bool Cluster::start(const std::string &SockDir, unsigned Clients,
                    std::string &Err) {
  ServiceOptions SvcOpt;
  // Each persistent connection pins one server worker: a shard serves the
  // coordinator plus up to Clients direct connections; the coordinator
  // serves Clients plus one priming connection.
  unsigned Threads = Clients + 2;
  std::string Prefix =
      formatStr("%s/pb-%d", SockDir.c_str(), static_cast<int>(::getpid()));
  for (unsigned I = 0; I != 2; ++I) {
    support::SockAddr A;
    A.IsUnix = true;
    A.Path = formatStr("%s-s%u.sock", Prefix.c_str(), I);
    auto Svc = std::make_unique<Service>(SvcOpt);
    auto B = std::make_unique<LocalBackend>(*Svc);
    if (!boot(A, std::move(B), std::move(Svc), Threads, Err))
      return false;
    ShardAddrs.push_back(Members.back()->Srv->boundAddr());
  }
  support::SockAddr CA;
  CA.IsUnix = true;
  CA.Path = Prefix + "-c.sock";
  auto CoordB = std::make_unique<CoordinatorBackend>(ShardAddrs,
                                                     CoordinatorOptions());
  Coord = CoordB.get();
  return boot(CA, std::move(CoordB), std::make_unique<Service>(SvcOpt),
              Threads, Err);
}

void Cluster::stop() {
  // Coordinator first: it holds the shards' only other connections.
  for (auto It = Members.rbegin(); It != Members.rend(); ++It) {
    (*It)->Srv->requestStop();
    if ((*It)->Pump.joinable())
      (*It)->Pump.join();
  }
  Members.clear();
  ShardAddrs.clear();
  Coord = nullptr;
}

const support::SockAddr &Cluster::coordinator() const {
  return Members.back()->Srv->boundAddr();
}

const support::SockAddr &Cluster::shardFor(const PartitionRequest &Req) const {
  return ShardAddrs[Coord->shardFor(Req.key())];
}

uint64_t Cluster::retries() const {
  return Coord ? Coord->localStats().getCounter("serve.retry.attempts") : 0;
}

uint64_t Cluster::shed() const {
  uint64_t N = 0;
  for (const auto &M : Members)
    N += M->Svc->registry().getCounter("serve.shed");
  return N;
}

bool pinToOneCpu() {
  cpu_set_t Allowed;
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return false;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Allowed)) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      return ::sched_setaffinity(0, sizeof(One), &One) == 0;
    }
  return false;
}

std::string socketDir() {
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/sock", 0755);
  return ".bench_build/sock";
}

// -- the request mix -------------------------------------------------------

namespace {

/// bench/serve_load's six specs and its strategy cycle, the only gdpd
/// traffic the repository records.
const char *const kLoadNamed = "pegwit";
constexpr std::pair<uint64_t, unsigned> kLoadGen[] = {
    {5, 24}, {11, 24}, {17, 30}, {23, 30}, {5, 40}};
const StrategyKind kLoadStrategies[] = {StrategyKind::GDP, StrategyKind::Naive,
                                        StrategyKind::GDP,
                                        StrategyKind::Unified};

/// Shares of the mix, in percent; the rest are warm spec requests. Both
/// are assumptions with no measured traffic behind them.
constexpr uint64_t kInlinePct = 8;
constexpr uint64_t kMissPct = 2;

} // namespace

const std::vector<StrategyKind> &serveStrategies() {
  static const std::vector<StrategyKind> S = {
      StrategyKind::Unified, StrategyKind::GDP, StrategyKind::Naive};
  return S;
}

ServeMix ServeMix::make(uint64_t Seed) {
  ServeMix M;
  M.Seed = Seed;
  M.Warm.push_back(Source::named(kLoadNamed));
  for (auto [S, Ops] : kLoadGen)
    M.Warm.push_back(Source::genSpec(S, Ops));
  // The same six programs sent as IR text: the parser on first sight,
  // frames and cache keys as long as the program text.
  M.NumInline = M.Warm.size();
  for (size_t I = 0; I != M.NumInline; ++I)
    M.Warm.push_back(Source::inlineOf(M.Warm[I]));
  return M;
}

MixRequest ServeMix::at(uint64_t Ticket) const {
  uint64_t H = mixSeed(Seed, Ticket);
  MixRequest R;
  R.Strategy = kLoadStrategies[(H >> 8) % 4];
  uint64_t Pct = H % 100;
  size_t NumPlain = Warm.size() - NumInline;
  if (Pct < kMissPct) {
    R.Miss = true;
    // Unique per (seed, ticket) and far from every warm seed; sized like
    // serve_load's gen specs.
    R.MissSeed = 1000000000ULL + (mixSeed(Seed, 0) % 1000000) * 1000000ULL +
                 Ticket;
    R.MissOps = kLoadGen[(H >> 16) % std::size(kLoadGen)].second;
  } else if (Pct < kMissPct + kInlinePct) {
    R.Prog = NumPlain + (H >> 24) % NumInline;
  } else {
    R.Prog = (H >> 24) % NumPlain;
  }
  return R;
}

Source ServeMix::missSource(const MixRequest &R) {
  return Source::genSpec(R.MissSeed, R.MissOps);
}

PartitionRequest ServeMix::request(const MixRequest &R) const {
  if (R.Miss)
    return missSource(R).request(R.Strategy, kServeLatency);
  return Warm[R.Prog].request(R.Strategy, kServeLatency);
}

// -- serve_mixed -----------------------------------------------------------

namespace {

constexpr unsigned kClients = 4;
/// p50_ms and p99_ms are medians over slices of this much serving time of
/// each slice's percentile, so a burst of host contention a few seconds
/// long moves a few slices rather than the run's whole tail.
constexpr double kSliceS = 1.0;
/// Slices with fewer warm samples (a window's ragged end) are skipped.
constexpr size_t kMinSliceSamples = 100;

/// What one client saw: latencies by kind and the first outcome per key.
struct ClientLog {
  std::vector<std::vector<float>> WarmMs; ///< By serving-time slice.
  std::vector<double> MissMs;
  uint64_t Issued = 0, Ok = 0, WarmMisses = 0;
  /// (prog, strategy) -> first outcome and how many responses equalled it.
  std::map<std::pair<size_t, int>, std::pair<CellOutcome, uint64_t>> Warm;
  std::vector<std::pair<MixRequest, CellOutcome>> Misses;
  std::vector<std::string> Failures;
};

/// One reference pass over the warm set: build, prepare (outside the
/// cache) and evaluate every (program, strategy), then simulate it.
struct RefPass {
  double CompileS = 0, SimS = 0;
  unsigned Degraded = 0;
  std::map<std::pair<size_t, int>, CellOutcome> Out;
};

RefPass referencePass(const ServeMix &Mix, Tally &T) {
  RefPass RP;
  for (size_t PI = 0; PI != Mix.Warm.size(); ++PI) {
    const Source &Src = Mix.Warm[PI];
    auto TB = Clock::now();
    auto Prog = Src.build();
    PreparedProgram PP;
    if (Prog)
      PP = prepareProgram(*Prog, 200000000ULL, /*CaptureTrace=*/true);
    RP.CompileS += secondsSince(TB);
    for (StrategyKind S : serveStrategies()) {
      if (!Prog || !PP.Ok) {
        T.record(Src.Label + ": preparation failed: " + PP.Error);
        continue;
      }
      PipelineOptions PO;
      PO.Strategy = S;
      PO.MoveLatency = kServeLatency;
      auto TC = Clock::now();
      PipelineResult Res = runStrategy(PP, PO);
      RP.CompileS += secondsSince(TC);
      std::string Why = checkCellOk(Res);
      if (Why.empty())
        Why = checkPlacement(*Prog, PP.Prof, Res);
      if (Why.empty()) {
        auto TS = Clock::now();
        SimResult SR = simulateStrategy(PP, Res, PO);
        RP.SimS += secondsSince(TS);
        Why = checkSim(Res, SR);
      }
      RP.Degraded += Res.Degraded;
      RP.Out[{PI, static_cast<int>(S)}] = outcomeOf(Res);
      T.record(Why.empty() ? Why
                           : Src.Label + " " + strategyName(S) + ": " + Why);
    }
  }
  return RP;
}

/// The in-process reference of one never-seen request.
bool missReference(const MixRequest &R, CellOutcome &Out) {
  auto Prog = ServeMix::missSource(R).build();
  if (!Prog)
    return false;
  PreparedProgram PP = prepareProgram(*Prog);
  if (!PP.Ok)
    return false;
  PipelineOptions PO;
  PO.Strategy = R.Strategy;
  PO.MoveLatency = kServeLatency;
  PipelineResult Res = runStrategy(PP, PO);
  Out = outcomeOf(Res);
  return Res.ok();
}

/// Boots a fresh cluster on a cold cache and primes every warm
/// (program, strategy) through the coordinator, then connects the
/// closed-loop clients. One set-up repetition.
bool setupServe(const ServeMix &Mix, Cluster &C,
                std::vector<Client> &Clients, std::string &Err) {
  PreparedProgramCache::global().clear();
  if (!C.start(socketDir(), kClients, Err))
    return false;
  Client Primer;
  std::vector<support::Diag> Diags;
  if (!Primer.connect(C.coordinator(), 30000, &Diags)) {
    Err = Diags.empty() ? "connect failed" : Diags.front().render();
    return false;
  }
  for (size_t PI = 0; PI != Mix.Warm.size(); ++PI)
    for (StrategyKind S : serveStrategies()) {
      std::string Body;
      Status St = Primer.partition(
          Mix.Warm[PI].request(S, kServeLatency), Body, nullptr);
      if (St != Status::Ok) {
        Err = "priming " + Mix.Warm[PI].Label + " answered " +
              statusName(St);
        return false;
      }
    }
  Clients.clear();
  Clients.resize(kClients);
  for (Client &Cl : Clients)
    if (!Cl.connect(C.coordinator(), 30000, &Diags)) {
      Err = Diags.empty() ? "connect failed" : Diags.front().render();
      return false;
    }
  return true;
}

/// One client's closed loop from \p Start, \p Served seconds into the
/// run's serving time, until \p End: take the next ticket, send its
/// request, wait for the reply, record it.
void closedLoop(const ServeMix &Mix, Client &Cl,
                const support::SockAddr &Target, std::atomic<uint64_t> &Next,
                Clock::time_point Start, double Served, Clock::time_point End,
                ClientLog &L) {
  while (Clock::now() < End) {
    uint64_t Ticket = Next.fetch_add(1, std::memory_order_relaxed);
    MixRequest MR = Mix.at(Ticket);
    PartitionRequest Req = Mix.request(MR);
    ++L.Issued;
    auto TR = Clock::now();
    std::string Body;
    Status St = Cl.partition(Req, Body, nullptr);
    double Ms = msSince(TR);
    CellOutcome Got;
    if (St != Status::Ok) {
      L.Failures.push_back(formatStr(
          "request for %s answered %s",
          MR.Miss ? "a never-seen spec" : Mix.Warm[MR.Prog].Label.c_str(),
          statusName(St)));
      if (!Cl.connected() && !Cl.connect(Target, 30000, nullptr))
        return;
      continue;
    }
    if (!parseServeBody(Body, Got)) {
      L.Failures.push_back("malformed response body");
      continue;
    }
    ++L.Ok;
    if (MR.Miss) {
      L.MissMs.push_back(Ms);
      L.Misses.push_back({MR, Got});
      continue;
    }
    auto Slice = static_cast<size_t>((Served + secondsSince(Start)) / kSliceS);
    if (L.WarmMs.size() <= Slice)
      L.WarmMs.resize(Slice + 1);
    L.WarmMs[Slice].push_back(static_cast<float>(Ms));
    if (Body.find("\"cache\": \"hit\"") == std::string::npos)
      ++L.WarmMisses;
    auto Key = std::make_pair(MR.Prog, static_cast<int>(MR.Strategy));
    auto [It, Fresh] = L.Warm.emplace(Key, std::make_pair(Got, 0));
    if (It->second.first == Got)
      ++It->second.second;
    else
      L.Failures.push_back(Mix.Warm[MR.Prog].Label + ": " +
                           checkRepeat(It->second.first, Got));
  }
}

} // namespace

Report runServeWorkload(const Options &Opt) {
  Report R;
  Cluster C;
  std::vector<Client> Clients;
  ServeMix Mix;

  // Set-up, kSetupReps times on a cold cache: build the mix (generate and
  // print the inline programs), boot the cluster, prime the warm cache
  // and connect the clients. setup_s is the median; the last one stays.
  std::vector<double> Setups;
  for (int I = 0; I != kSetupReps; ++I) {
    Clients.clear();
    C.stop();
    auto T0 = Clock::now();
    Mix = ServeMix::make(Opt.Seed);
    std::string Err;
    if (!setupServe(Mix, C, Clients, Err)) {
      R.T.record("set-up failed: " + Err);
      return R;
    }
    Setups.push_back(secondsSince(T0));
  }

  // The run alternates serving windows (70% of the time) with reference
  // passes (the rest), so the serving and the compile_s/sim_s figures
  // both sample the whole run rather than one end of it.
  constexpr int kChunks = 4;
  std::atomic<uint64_t> Next{0};
  std::vector<ClientLog> Logs(kClients);
  // Every reference pass must match the first, which every response is
  // then checked against; later passes keep only their times.
  RefPass First;
  std::vector<double> CompileS, SimS;
  const support::SockAddr Target = C.coordinator();
  double Wall = 0;
  for (int Chunk = 0; Chunk != kChunks; ++Chunk) {
    auto T0 = Clock::now();
    Clock::time_point End =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Opt.Seconds * 0.7 / kChunks));
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W != kClients; ++W)
      Workers.emplace_back([&, W] {
        closedLoop(Mix, Clients[W], Target, Next, T0, Wall, End, Logs[W]);
      });
    for (auto &W : Workers)
      W.join();
    Wall += secondsSince(T0);
    auto TRef = Clock::now();
    do {
      RefPass RP = referencePass(Mix, R.T);
      CompileS.push_back(RP.CompileS);
      SimS.push_back(RP.SimS);
      if (CompileS.size() == 1) {
        First = std::move(RP);
        continue;
      }
      for (auto &[Key, Out] : RP.Out)
        if (Out != First.Out[Key])
          R.T.record(Mix.Warm[Key.first].Label + ": reference " +
                     checkRepeat(First.Out[Key], Out));
    } while (secondsSince(TRef) < Opt.Seconds * 0.3 / kChunks);
  }
  uint64_t Retries = C.retries(), Shed = C.shed();
  Clients.clear();
  C.stop();

  R.T.Degraded += First.Degraded;

  // Check every response against its reference: one attempt per request.
  std::vector<double> MissMs;
  size_t NumSlices = 0, NumWarm = 0;
  uint64_t Issued = 0, Ok = 0, WarmMisses = 0;
  std::map<std::pair<size_t, int>, CellOutcome> Served;
  for (ClientLog &L : Logs) {
    for (const std::string &F : L.Failures)
      R.T.record(F);
    for (auto &[Key, FirstAndCount] : L.Warm) {
      const CellOutcome &Got = FirstAndCount.first;
      std::string Why = checkRepeat(First.Out[Key], Got);
      if (!Why.empty())
        Why = Mix.Warm[Key.first].Label + " " +
              strategyName(static_cast<StrategyKind>(Key.second)) +
              ": served vs reference: " + Why;
      for (uint64_t I = 0; I != FirstAndCount.second; ++I)
        R.T.record(Why);
      Served[Key] = Got;
    }
    for (auto &[MR, Got] : L.Misses) {
      CellOutcome Ref;
      std::string Label = ServeMix::missSource(MR).Label;
      if (!missReference(MR, Ref))
        R.T.record(Label + ": reference evaluation failed");
      else if (Got != Ref)
        R.T.record(Label + ": served vs reference: " + checkRepeat(Ref, Got));
      else
        R.T.record("");
    }
    NumSlices = std::max(NumSlices, L.WarmMs.size());
    MissMs.insert(MissMs.end(), L.MissMs.begin(), L.MissMs.end());
    Issued += L.Issued;
    Ok += L.Ok;
    WarmMisses += L.WarmMisses;
  }

  // Warm latency percentiles per slice, over every client's samples.
  std::vector<double> SliceP50, SliceP99, Samples;
  for (size_t I = 0; I != NumSlices; ++I) {
    Samples.clear();
    for (const ClientLog &L : Logs)
      if (I < L.WarmMs.size())
        Samples.insert(Samples.end(), L.WarmMs[I].begin(), L.WarmMs[I].end());
    NumWarm += Samples.size();
    if (Samples.size() < kMinSliceSamples)
      continue;
    SliceP50.push_back(percentile(Samples, 0.5));
    SliceP99.push_back(percentile(Samples, 0.99));
  }

  std::vector<double> Ratios;
  for (size_t PI = 0; PI != Mix.Warm.size(); ++PI) {
    auto U = Served.find({PI, static_cast<int>(StrategyKind::Unified)});
    auto G = Served.find({PI, static_cast<int>(StrategyKind::GDP)});
    if (U != Served.end() && G != Served.end() && G->second.Cycles)
      Ratios.push_back(static_cast<double>(U->second.Cycles) /
                       static_cast<double>(G->second.Cycles));
  }
  R.add("setup_s", median(Setups), Setups.size());
  R.add("compile_s", median(CompileS), CompileS.size());
  R.add("sim_s", median(SimS), SimS.size());
  R.add("gdp_rel_perf", geomean(Ratios), Ratios.size());
  R.add("peak_rss_mb", peakRssMb(), 1);
  R.add("rps", static_cast<double>(Ok) / Wall, Ok);
  R.add("p50_ms", median(SliceP50), NumWarm);
  R.add("p99_ms", median(SliceP99), NumWarm);
  R.add("miss_p50_ms", percentile(MissMs, 0.5), MissMs.size());
  R.Notes.push_back(formatStr(
      "%llu requests in %.2fs: %zu warm (%llu missed the cache), %zu "
      "never-seen; retries %llu, shed %llu; %zu reference passes",
      static_cast<unsigned long long>(Issued), Wall, NumWarm,
      static_cast<unsigned long long>(WarmMisses), MissMs.size(),
      static_cast<unsigned long long>(Retries),
      static_cast<unsigned long long>(Shed), CompileS.size()));
  R.Notes.push_back(formatStr(
      "p99_ms over %zu slices of %.0fs: min %.3f, median %.3f, max %.3f",
      SliceP99.size(), kSliceS, percentile(SliceP99, 0), median(SliceP99),
      percentile(SliceP99, 1)));
  return R;
}

} // namespace perfbench
