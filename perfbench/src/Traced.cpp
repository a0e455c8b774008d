//===- perfbench/src/Traced.cpp - The traced per-layer run ----------------===//
//
// A separate invocation per workload (--trace 1). It calls each layer's
// public functions directly, once per program of the workload, and sends
// a sample of the workload's programs as serve requests; every call is a
// span (SpanRecorder) and the counts are taken at the same boundaries.
// Traced layer passes alternate with untraced ones, which make the same
// calls with no span, clock read or count per call, and the ratio of
// their median times is reported as the tracing overhead. End-to-end
// metrics never come from this run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Serve.h"
#include "Spans.h"

#include "analysis/CFG.h"
#include "analysis/DefUse.h"
#include "analysis/LoopInfo.h"
#include "analysis/PointsTo.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "partition/AccessMerge.h"
#include "partition/GlobalDataPartitioner.h"
#include "partition/PreparedCache.h"
#include "partition/ProgramGraph.h"
#include "partition/RHOP.h"
#include "profile/Interpreter.h"
#include "sched/ListScheduler.h"
#include "serve/Client.h"
#include "sim/Simulator.h"
#include "support/StrUtil.h"

#include <unistd.h>

#include <atomic>
#include <map>

using namespace gdp;
using namespace gdp::serve;

namespace perfbench {

namespace {

/// The move latency of every traced call.
constexpr unsigned kTraceLatency = 5;

/// Per-pass sums: seconds and call counts per timed metric, and counts.
/// An untraced pass (On false) keeps only its pass time.
struct PassSums {
  bool On = true;
  std::map<std::string, double> Secs;
  std::map<std::string, uint64_t> Calls;
  std::map<std::string, double> Counts;
  double PassSeconds = 0;
  unsigned Degraded = 0;

  void time(const char *Metric, double S) {
    if (!On)
      return;
    Secs[Metric] += S;
    ++Calls[Metric];
  }
  void count(const char *Metric, double N) {
    if (On)
      Counts[Metric] += N;
  }
};

/// The workload's programs as the traced run sees them: the suite, or
/// serve_mixed's warm programs plus its first four never-seen specs.
std::vector<Source> tracedPrograms(const Options &Opt) {
  if (Opt.Workload == "suite_matrix")
    return suiteSources();
  ServeMix Mix = ServeMix::make(Opt.Seed);
  std::vector<Source> Out = Mix.Warm;
  for (uint64_t Ticket = 0; Out.size() < Mix.Warm.size() + 4; ++Ticket) {
    MixRequest MR = Mix.at(Ticket);
    if (MR.Miss)
      Out.push_back(ServeMix::missSource(MR));
  }
  return Out;
}

/// One layer pass over \p Programs. Fills \p Gdp with each program's GDP
/// outcome (the serve sample's reference). With recording off it makes
/// the same calls with no span, per-call clock read or count: the
/// untraced pass.
PassSums layerPass(const std::vector<Source> &Programs, SpanRecorder &Rec,
                   Tally &T, std::vector<CellOutcome> &Gdp) {
  PassSums S;
  S.On = Rec.enabled();
  Gdp.assign(Programs.size(), CellOutcome());
  auto TPass = Clock::now();
  ScopedSpan PassSpan(Rec, "pass");
  for (size_t PI = 0; PI != Programs.size(); ++PI) {
    const Source &Src = Programs[PI];
    ScopedSpan ProgSpan(Rec, "program", Src.Label);

    if (Src.K != Source::Inline) { // Inline IR is parsed, not generated.
      ScopedSpan Sp(Rec, "gen.generate");
      auto P = Src.build();
      S.time("gen.generate_s", Sp.stop());
    }
    auto Prog = Src.build();
    if (!Prog) {
      T.record(Src.Label + ": program failed to build");
      continue;
    }
    S.count("gen.static_ops", Prog->getNumOps());
    {
      ScopedSpan Sp(Rec, "ir.verify");
      VerifyResult VR = verifyProgram(*Prog);
      S.time("ir.verify_s", Sp.stop());
      if (!VR.ok())
        T.record(Src.Label + ": " + VR.message());
    }
    {
      std::string Text = printProgram(*Prog, /*IncludeInit=*/true);
      ScopedSpan Sp(Rec, "ir.parse");
      ParseResult PR = parseProgram(Text);
      S.time("ir.parse_s", Sp.stop());
      if (!PR.ok())
        T.record(Src.Label + ": printed IR does not parse: " + PR.Error);
    }
    {
      ScopedSpan Sp(Rec, "analysis.points_to");
      annotateMemoryAccesses(*Prog);
      S.time("analysis.points_to_s", Sp.stop());
    }
    for (unsigned F = 0; F != Prog->getNumFunctions(); ++F) {
      const Function &Fn = Prog->getFunction(F);
      ScopedSpan CfgSp(Rec, "analysis.cfg", Fn.getName());
      CFG Cfg(Fn);
      S.time("analysis.cfg_s", CfgSp.stop());
      ScopedSpan DuSp(Rec, "analysis.defuse", Fn.getName());
      DefUse DU(Fn);
      S.time("analysis.defuse_s", DuSp.stop());
      ScopedSpan LoopSp(Rec, "analysis.loops", Fn.getName());
      LoopInfo LI(Fn, Cfg);
      S.time("analysis.loops_s", LoopSp.stop());
      if (!S.On)
        continue;
      S.count("analysis.blocks", Fn.getNumBlocks());
      S.count("analysis.defs", DU.getNumDefs());
      unsigned Calls = 0;
      for (const auto &BB : Fn.blocks())
        for (const auto &Op : BB->operations())
          Calls += Op->getOpcode() == Opcode::Call;
      S.count("analysis.call_sites", Calls);
    }
    {
      Interpreter Interp(*Prog);
      ScopedSpan Sp(Rec, "profile.interpret");
      InterpResult IR = Interp.run();
      S.time("profile.interpret_s", Sp.stop());
      if (!IR.Ok)
        T.record(Src.Label + ": interpretation failed: " + IR.Error);
      const ProfileData &Prof = Interp.getProfile();
      double Execs = 0;
      for (unsigned F = 0; S.On && F != Prog->getNumFunctions(); ++F)
        for (unsigned B = 0; B != Prog->getFunction(F).getNumBlocks(); ++B)
          Execs += Prof.getBlockFreq(F, B);
      S.count("profile.block_execs", Execs);
    }

    // The partitioning layers on a freshly built, prepared program.
    auto Prog2 = Src.build();
    PreparedProgram PP;
    {
      ScopedSpan Sp(Rec, "partition.prepare");
      PP = prepareProgram(*Prog2, 200000000ULL, /*CaptureTrace=*/true);
      S.time("partition.prepare_s", Sp.stop());
    }
    if (!PP.Ok) {
      T.record(Src.Label + ": preparation failed: " + PP.Error);
      continue;
    }
    PipelineOptions GdpOpt;
    GdpOpt.Strategy = StrategyKind::GDP;
    GdpOpt.MoveLatency = kTraceLatency;
    MachineModel MM = machineFor(GdpOpt);
    {
      ScopedSpan Sp(Rec, "partition.program_graph");
      ProgramGraph PG(*Prog2, PP.Prof);
      S.time("partition.program_graph_s", Sp.stop());
      S.count("partition.graph_nodes", PG.getNumNodes());
      S.count("partition.graph_edges", PG.edges().size());
      ScopedSpan AmSp(Rec, "partition.access_merge");
      AccessMerge AM(PG, *Prog2);
      S.time("partition.access_merge_s", AmSp.stop());
    }
    GDPOptions DataOpt;
    DataOpt.MemCapacityBytes = MM.getClusterMemoryBytes();
    GDPResult G;
    {
      ScopedSpan Sp(Rec, "partition.gdp");
      G = runGlobalDataPartitioning(*Prog2, PP.Prof, MM.getNumClusters(),
                                    DataOpt);
      S.time("partition.gdp_s", Sp.stop());
      S.count("partition.cut_weight", G.CutWeight);
    }
    {
      ScopedSpan Sp(Rec, "partition.rhop_free");
      runRHOP(*Prog2, PP.Prof, MM, nullptr);
      S.time("partition.rhop_free_s", Sp.stop());
    }
    {
      LockMap Locks = buildLockMap(*Prog2, G.Placement, PP.Prof);
      ScopedSpan Sp(Rec, "partition.rhop_locked");
      runRHOP(*Prog2, PP.Prof, MM, &Locks);
      S.time("partition.rhop_locked_s", Sp.stop());
    }
    PipelineResult GdpRes;
    for (StrategyKind K : allStrategies()) {
      PipelineOptions PO;
      PO.Strategy = K;
      PO.MoveLatency = kTraceLatency;
      std::string Metric =
          std::string("partition.strategy_") + wireStrategy(K) + "_s";
      ScopedSpan Sp(Rec, "partition.strategy", wireStrategy(K));
      PipelineResult Res = runStrategy(PP, PO);
      S.time(Metric.c_str(), Sp.stop());
      S.count("partition.rhop_runs", Res.RHOPRuns);
      S.count("partition.fallbacks", Res.Fallbacks);
      std::string Why = checkCellOk(Res);
      if (Why.empty())
        Why = checkPlacement(*Prog2, PP.Prof, Res);
      T.record(Why.empty() ? Why
                           : Src.Label + " " + strategyName(K) + ": " + Why);
      S.Degraded += Res.Degraded;
      if (K == StrategyKind::GDP)
        GdpRes = std::move(Res);
    }
    Gdp[PI] = outcomeOf(GdpRes);
    if (GdpRes.Failed)
      continue;
    {
      ScopedSpan Sp(Rec, "sched.schedule");
      ProgramSchedule PS =
          scheduleProgram(*Prog2, PP.Prof, MM, GdpRes.Assignment);
      S.time("sched.schedule_s", Sp.stop());
      S.count("sched.static_moves", PS.StaticMoves);
      S.count("sched.dynamic_moves", PS.DynamicMoves);
    }
    {
      ScopedSpan Sp(Rec, "sim.simulate");
      SimResult SR = simulateStrategy(PP, GdpRes, GdpOpt);
      S.time("sim.simulate_s", Sp.stop());
      S.count("sim.block_execs", SR.BlockExecs);
      S.count("sim.bus_transfers", SR.BusTransfers);
      std::string Why = checkSim(GdpRes, SR);
      T.record(Why.empty() ? Why : Src.Label + ": " + Why);
    }
  }
  PassSpan.stop();
  S.PassSeconds = secondsSince(TPass);
  return S;
}

/// Raw samples of the serve sample.
struct ServeSamples {
  std::vector<double> CodecUs, HitMs, MissMs, ShardMs, CoordMs;
  uint64_t Lookups = 0, Hits = 0, Retries = 0, Shed = 0;
};

/// Times one request/response through the wire codec without a socket:
/// request encode + frame + decode, then the response frame + decode.
double codecSeconds(const PartitionRequest &Req, const std::string &Body) {
  auto T0 = Clock::now();
  std::string ReqFrame =
      encodeFrame(Verb::Partition, Status::Ok, Req.encode());
  std::string RespFrame = encodeFrame(Verb::Partition, Status::Ok, Body);
  for (const std::string *Bytes : {&ReqFrame, &RespFrame}) {
    FrameReader FR;
    FR.feed(Bytes->data(), Bytes->size());
    Frame F;
    support::Diag D;
    if (FR.next(F, D) != 1)
      return -1;
    if (Bytes == &ReqFrame) {
      PartitionRequest Back;
      if (!PartitionRequest::decode(F.Payload, Back, D))
        return -1;
    }
  }
  return secondsSince(T0);
}

/// Sends the workload's programs (GDP, latency 5) as serve requests:
/// in-process through Service (miss, then hit), then through a cluster
/// with \p Clients concurrent connections, to the coordinator and
/// straight to the owning shard. Every Ok body is checked against the
/// layer pass's GDP outcome.
ServeSamples serveSample(const std::vector<Source> &Programs,
                         const std::vector<CellOutcome> &Gdp,
                         unsigned Clients, unsigned Rounds,
                         SpanRecorder &Rec, Tally &T) {
  ServeSamples SS;
  std::vector<PartitionRequest> Reqs;
  for (const Source &Src : Programs)
    Reqs.push_back(Src.request(StrategyKind::GDP, kTraceLatency));
  auto check = [&](size_t I, Status St, const std::string &Body) {
    std::string Why = St == Status::Ok ? checkServeBody(Body, Gdp[I])
                                       : std::string("answered ") +
                                             statusName(St);
    T.record(Why.empty() ? Why : Programs[I].Label + ": " + Why);
    ++SS.Lookups;
    SS.Hits += Body.find("\"cache\": \"hit\"") != std::string::npos;
  };

  ScopedSpan SampleSpan(Rec, "serve.sample");
  PreparedProgramCache::global().clear();
  {
    Service Svc{ServiceOptions()};
    for (size_t I = 0; I != Reqs.size(); ++I) {
      ScopedSpan ReqSpan(Rec, "serve.request", Programs[I].Label);
      for (std::vector<double> *Into : {&SS.MissMs, &SS.HitMs}) {
        ScopedSpan Sp(Rec, Into == &SS.MissMs ? "serve.service_miss"
                                              : "serve.service_hit");
        PartitionOutcome Out = Svc.partition(Reqs[I]);
        Into->push_back(Sp.stop() * 1e3);
        check(I, Out.S, Out.Body);
        if (Into == &SS.HitMs) {
          ScopedSpan CodecSp(Rec, "serve.codec");
          double Sec = codecSeconds(Reqs[I], Out.Body);
          CodecSp.stop();
          if (Sec < 0)
            T.record(Programs[I].Label + ": frame round trip failed");
          else
            SS.CodecUs.push_back(Sec * 1e6);
        }
      }
    }
  }

  PreparedProgramCache::global().clear();
  Cluster C;
  std::string Err;
  if (!C.start(socketDir(), Clients, Err)) {
    T.record("cluster failed to start: " + Err);
    return SS;
  }
  {
    Client Primer;
    if (!Primer.connect(C.coordinator(), 60000, nullptr)) {
      T.record("cannot connect to the coordinator");
      return SS;
    }
    for (size_t I = 0; I != Reqs.size(); ++I) {
      std::string Body;
      check(I, Primer.partition(Reqs[I], Body, nullptr), Body);
    }
  }
  // Rounds alternate between the coordinator path and the direct shard
  // path, so both see the same machine conditions.
  uint64_t Root = SampleSpan.id();
  std::mutex Mu; // Guards SS and T from the client threads.
  std::vector<std::map<std::string, Client>> Conns(Clients); // by address
  for (unsigned Round = 0; Round != 2 * Rounds; ++Round) {
    bool ViaCoordinator = Round % 2 == 0;
    std::vector<std::thread> Threads;
    for (unsigned W = 0; W != Clients; ++W)
      Threads.emplace_back([&, W] {
        for (size_t K = 0; K != Reqs.size(); ++K) {
          size_t I = (K + W * 7) % Reqs.size();
          const support::SockAddr &Addr =
              ViaCoordinator ? C.coordinator() : C.shardFor(Reqs[I]);
          Client &Cl = Conns[W][Addr.str()];
          if (!Cl.connected() && !Cl.connect(Addr, 60000, nullptr)) {
            std::lock_guard<std::mutex> Lock(Mu);
            T.record("cannot connect to " + Addr.str());
            continue;
          }
          ScopedSpan Sp(Rec,
                        ViaCoordinator ? "serve.coord_rtt"
                                       : "serve.shard_rtt",
                        Programs[I].Label, Root);
          std::string Body;
          Status St = Cl.partition(Reqs[I], Body, nullptr);
          double Ms = Sp.stop() * 1e3;
          std::lock_guard<std::mutex> Lock(Mu);
          (ViaCoordinator ? SS.CoordMs : SS.ShardMs).push_back(Ms);
          check(I, St, Body);
        }
      });
    for (auto &Th : Threads)
      Th.join();
  }
  SS.Retries = C.retries();
  SS.Shed = C.shed();
  return SS;
}

} // namespace

Report runTracedWorkload(const Options &Opt) {
  Report R;
  std::string RunId = formatStr("%s-seed%llu-pid%d", Opt.Workload.c_str(),
                                static_cast<unsigned long long>(Opt.Seed),
                                static_cast<int>(::getpid()));
  SpanRecorder Rec(RunId);
  std::vector<Source> Programs = tracedPrograms(Opt);
  bool Serving = Opt.Workload == "serve_mixed";

  // Layer passes for about 60% of the run, alternating span recording on
  // and off so both see the same machine conditions: the per-layer values
  // come from the traced passes, the overhead from the ratio of the two.
  auto T0 = Clock::now();
  std::vector<PassSums> Passes;
  std::vector<double> PassTimes, UntracedTimes;
  std::vector<CellOutcome> Gdp, UntracedGdp;
  while (Passes.empty() ||
         secondsSince(T0) + median(PassTimes) < Opt.Seconds * 0.6) {
    Rec.setEnabled(true);
    Passes.push_back(layerPass(Programs, Rec, R.T, Gdp));
    PassTimes.push_back(Passes.back().PassSeconds);
    Rec.setEnabled(false);
    UntracedTimes.push_back(
        layerPass(Programs, Rec, R.T, UntracedGdp).PassSeconds);
    for (size_t I = 0; I != Gdp.size(); ++I)
      R.T.record(checkRepeat(Gdp[I], UntracedGdp[I]));
  }
  Rec.setEnabled(true);

  // Four clients on serve_mixed (its closed loop), one elsewhere.
  unsigned Rounds = Serving ? 4 : 3;
  ServeSamples SS =
      serveSample(Programs, Gdp, Serving ? 4 : 1, Rounds, Rec, R.T);

  // Per-layer values: `_s` metrics are per-pass sums over the workload's
  // programs (median over passes); counts come from the first pass.
  const PassSums &First = Passes.front();
  R.T.Degraded += First.Degraded;
  std::map<std::string, double> Med;
  for (auto &[Name, Unused] : First.Secs) {
    std::vector<double> V;
    for (const PassSums &P : Passes)
      V.push_back(P.Secs.count(Name) ? P.Secs.at(Name) : 0.0);
    Med[Name] = median(V);
    R.add(Name, Med[Name], First.Calls.at(Name) * Passes.size());
  }
  for (auto &[Name, V] : First.Counts)
    R.add(Name, V, 1);
  R.add("graph.partition_s",
        Med["partition.gdp_s"] - Med["partition.program_graph_s"] -
            Med["partition.access_merge_s"],
        Passes.size());
  double BlockExecs = First.Counts.count("sim.block_execs")
                          ? First.Counts.at("sim.block_execs")
                          : 0;
  R.add("sim.ns_per_block_exec",
        BlockExecs > 0 ? Med["sim.simulate_s"] * 1e9 / BlockExecs : 0,
        Passes.size());

  double ShardMs = median(SS.ShardMs), CoordMs = median(SS.CoordMs);
  R.add("serve.codec_us", median(SS.CodecUs), SS.CodecUs.size());
  R.add("serve.service_hit_ms", median(SS.HitMs), SS.HitMs.size());
  R.add("serve.service_miss_ms", median(SS.MissMs), SS.MissMs.size());
  R.add("serve.shard_rtt_ms", ShardMs, SS.ShardMs.size());
  R.add("serve.coord_rtt_ms", CoordMs, SS.CoordMs.size());
  R.add("serve.coord_wait_ms", CoordMs - ShardMs, SS.CoordMs.size());
  R.add("serve.cache_hit_ratio",
        SS.Lookups ? static_cast<double>(SS.Hits) / SS.Lookups : 0,
        SS.Lookups);
  R.add("serve.retries", static_cast<double>(SS.Retries), 1);
  R.add("serve.shed", static_cast<double>(SS.Shed), 1);

  double TracedPass = median(PassTimes), UntracedPass = median(UntracedTimes);
  R.add("trace.overhead_ratio", TracedPass / UntracedPass, Passes.size());

  R.Notes.push_back(formatStr(
      "%zu traced layer passes (median %.3fs) vs %zu untraced (median "
      "%.3fs): tracing overhead %+.1f%%",
      Passes.size(), TracedPass, UntracedTimes.size(), UntracedPass,
      (TracedPass / UntracedPass - 1) * 100));
  if (!Opt.SpansOut.empty()) {
    if (Rec.write(Opt.SpansOut))
      R.Notes.push_back(formatStr("%zu spans of run %s written to %s",
                                  Rec.size(), RunId.c_str(),
                                  Opt.SpansOut.c_str()));
    else
      R.T.record("cannot write spans to " + Opt.SpansOut);
  }
  return R;
}

} // namespace perfbench
