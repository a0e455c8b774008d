//===- partition/Exhaustive.cpp - Exhaustive placement search ---------------===//

#include "partition/Exhaustive.h"

#include "sched/ListScheduler.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace gdp;

namespace {

/// The best and worst placements over some evaluated masks. Strict
/// improvement only, so of equal candidates the first added wins: masks
/// (and chunk optima) added in ascending order keep the lowest mask.
struct Optimum {
  uint64_t BestCycles = 0;
  uint64_t BestMask = 0;
  uint64_t WorstCycles = 0;
  uint64_t WorstMask = 0;
  bool Any = false; ///< False until something was added.

  void add(uint64_t Mask, uint64_t Cycles) {
    add(Optimum{Cycles, Mask, Cycles, Mask, true});
  }

  void add(const Optimum &O) {
    if (!O.Any)
      return;
    if (!Any || O.BestCycles < BestCycles) {
      BestCycles = O.BestCycles;
      BestMask = O.BestMask;
    }
    if (!Any || O.WorstCycles > WorstCycles) {
      WorstCycles = O.WorstCycles;
      WorstMask = O.WorstMask;
    }
    Any = true;
  }
};

} // namespace

ExhaustiveResult gdp::exhaustiveSearch(const PreparedProgram &PP,
                                       const PipelineOptions &Opt,
                                       unsigned Threads,
                                       const support::Budget *B) {
  ExhaustiveResult Result;
  if (!PP.Ok || !PP.Analyses) {
    Result.Ok = false;
    Result.Diags = PP.Diags;
    if (Result.Diags.empty())
      Result.Diags.push_back(support::errorDiag(
          support::StatusCode::Internal, "exhaustive",
          PP.Error.empty() ? "program was not prepared" : PP.Error));
    return Result;
  }
  const Program &P = *PP.P;
  unsigned N = P.getNumObjects();
  if (N > MaxExhaustiveObjects) {
    Result.Ok = false;
    support::Diag D = support::errorDiag(
        support::StatusCode::TooLarge, "exhaustive",
        "search space too large for exhaustive enumeration");
    D.with("objects", static_cast<uint64_t>(N))
        .with("max_objects", static_cast<uint64_t>(MaxExhaustiveObjects));
    // 2^N placements; past 63 bits report the exponent only.
    if (N < 64)
      D.with("search_space", uint64_t{1} << N);
    else
      D.with("search_space_log2", static_cast<uint64_t>(N));
    Result.Diags.push_back(std::move(D));
    return Result;
  }
  if (Threads == 0)
    Threads = support::threadCountFromEnv();

  PipelineOptions Local = Opt;
  MachineModel MM = machineFor(Local);
  if (MM.getNumClusters() != 2) {
    Result.Ok = false;
    Result.Diags.push_back(
        support::errorDiag(support::StatusCode::UsageError, "exhaustive",
                           "placement enumeration assumes 2 clusters")
            .with("clusters", static_cast<uint64_t>(MM.getNumClusters())));
    return Result;
  }

  support::Budget Unlimited;
  support::BudgetMeter Meter(B ? *B : Unlimited);

  uint64_t NumMasks = 1ULL << N;
  Result.Points.resize(NumMasks);

  // Evaluates one placement into its preassigned slot (disjoint writes, so
  // the parallel chunks need no synchronization on Points).
  auto EvalMask = [&](uint64_t Mask) {
    DataPlacement Placement(N);
    for (unsigned Obj = 0; Obj != N; ++Obj)
      Placement.setHome(Obj, static_cast<int>((Mask >> Obj) & 1));
    LockMap Locks = buildLockMap(P, Placement, PP.Prof);
    ClusterAssignment CA = runRHOP(*PP.Analyses, PP.Prof, MM, &Locks);
    ProgramSchedule PS = scheduleProgram(*PP.Analyses, PP.Prof, MM, CA);

    ExhaustivePoint &Pt = Result.Points[Mask];
    Pt.Mask = Mask;
    Pt.Cycles = PS.TotalCycles;
    Pt.Imbalance = Placement.sizeImbalance(P, 2);
    Pt.Evaluated = true;
  };

  // Contiguous chunks over the mask space; enough chunks per thread to
  // even out the load (placements differ wildly in RHOP cost). One thread
  // runs the chunks inline, in mask order.
  uint64_t NumChunks = std::min<uint64_t>(NumMasks, Threads * 8ull);
  uint64_t ChunkSize = (NumMasks + NumChunks - 1) / NumChunks;
  NumChunks = (NumMasks + ChunkSize - 1) / ChunkSize;

  telemetry::TelemetrySession *Parent = telemetry::session();
  std::vector<std::unique_ptr<telemetry::TelemetrySession>> Shards(NumChunks);
  std::vector<Optimum> Optima(NumChunks);

  support::ThreadPool Pool(Threads - 1);
  Pool.parallelFor(0, NumChunks, [&](size_t Chunk) {
    // Per-task telemetry shard: counters recorded here merge into the
    // parent at join time, in chunk order, keeping totals exact.
    std::optional<telemetry::ScopedSession> Scope;
    if (Parent) {
      Shards[Chunk] = std::make_unique<telemetry::TelemetrySession>();
      // Merged trace events re-parent onto the span that spawned the
      // chunk tasks and carry the chunk index as their task tag.
      Shards[Chunk]->adoptTaskContext(telemetry::inheritedContext(),
                                      static_cast<int32_t>(Chunk));
      Scope.emplace(*Shards[Chunk]);
    }
    uint64_t Begin = Chunk * ChunkSize;
    uint64_t End = std::min(NumMasks, Begin + ChunkSize);
    for (uint64_t Mask = Begin; Mask != End; ++Mask) {
      if (!Meter.charge())
        break;
      EvalMask(Mask);
      Optima[Chunk].add(Mask, Result.Points[Mask].Cycles);
    }
  });

  // Deterministic reduction in chunk order: the lowest mask wins ties at
  // any thread count.
  Optimum Total;
  for (uint64_t Chunk = 0; Chunk != NumChunks; ++Chunk) {
    Total.add(Optima[Chunk]);
    if (Parent && Shards[Chunk])
      Parent->mergeFrom(*Shards[Chunk]);
  }

  // Where the three partitioners land in this space.
  auto MaskOf = [&](const DataPlacement &Placement) {
    uint64_t Mask = 0;
    for (unsigned Obj = 0; Obj != N; ++Obj)
      if (Placement.getHome(Obj) == 1)
        Mask |= 1ULL << Obj;
    return Mask;
  };
  Local.Strategy = StrategyKind::GDP;
  Result.GDPMask = MaskOf(runStrategy(PP, Local).Placement);
  Local.Strategy = StrategyKind::ProfileMax;
  Result.ProfileMaxMask = MaskOf(runStrategy(PP, Local).Placement);
  Local.Strategy = StrategyKind::Naive;
  Result.NaiveMask = MaskOf(runStrategy(PP, Local).Placement);

  if (Meter.exhausted()) {
    Result.BudgetExhausted = true;
    Result.Diags.push_back(Meter.diag("exhaustive"));
    // Anchor the best-so-far at the heuristics' quality: evaluate the
    // strategies' own placements (uncharged — this bounded extra work is
    // what guarantees a budgeted answer is never worse than Naive) and
    // recompute the optimum over everything evaluated, in mask order.
    for (uint64_t Anchor :
         {Result.GDPMask, Result.ProfileMaxMask, Result.NaiveMask})
      if (!Result.Points[Anchor].Evaluated)
        EvalMask(Anchor);
    Total = Optimum();
    for (uint64_t Mask = 0; Mask != NumMasks; ++Mask)
      if (Result.Points[Mask].Evaluated)
        Total.add(Mask, Result.Points[Mask].Cycles);
  }
  Result.BestCycles = Total.BestCycles;
  Result.BestMask = Total.BestMask;
  Result.WorstCycles = Total.WorstCycles;
  Result.WorstMask = Total.WorstMask;

  for (const ExhaustivePoint &Pt : Result.Points)
    if (Pt.Evaluated)
      ++Result.EvaluatedPoints;
  telemetry::counter("exhaustive.points", Result.EvaluatedPoints);
  return Result;
}
