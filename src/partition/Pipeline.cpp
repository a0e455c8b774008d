//===- partition/Pipeline.cpp - End-to-end partitioning pipeline ------------===//

#include "partition/Pipeline.h"

#include "analysis/PointsTo.h"
#include "ir/Verifier.h"
#include "partition/PartitionTables.h"
#include "profile/Interpreter.h"
#include "profile/TraceSummary.h"
#include "sched/ListScheduler.h"
#include "support/FaultInjector.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>

using namespace gdp;

const char *gdp::strategyName(StrategyKind K) {
  switch (K) {
  case StrategyKind::GDP:
    return "GDP";
  case StrategyKind::ProfileMax:
    return "ProfileMax";
  case StrategyKind::Naive:
    return "Naive";
  case StrategyKind::Unified:
    return "Unified";
  }
  return "<bad>";
}

bool gdp::parseStrategyName(const std::string &Name, StrategyKind &Out) {
  if (Name == "gdp")
    Out = StrategyKind::GDP;
  else if (Name == "profilemax")
    Out = StrategyKind::ProfileMax;
  else if (Name == "naive")
    Out = StrategyKind::Naive;
  else if (Name == "unified")
    Out = StrategyKind::Unified;
  else
    return false;
  return true;
}

PreparedProgram gdp::prepareProgram(Program &P, uint64_t MaxSteps,
                                    bool CaptureTrace) {
  telemetry::Span Phase("pipeline.prepare");
  auto Start = std::chrono::steady_clock::now();
  PreparedProgram PP;
  PP.P = &P;
  auto Done = [&] {
    PP.PrepareSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
  };

  {
    telemetry::Span T("pipeline.prepare.verify");
    VerifyResult VR = verifyProgram(P);
    if (!VR.ok()) {
      PP.Error = "verification failed:\n" + VR.message();
      PP.Diags = VR.Diags;
      Done();
      return PP;
    }
  }

  {
    telemetry::Span T("pipeline.prepare.points_to");
    unsigned EmptyAccess = annotateMemoryAccesses(P);
    if (EmptyAccess != 0) {
      PP.Error = formatStr(
          "%u memory operations have empty access sets (address not rooted "
          "in any data object)",
          EmptyAccess);
      PP.Diags.push_back(
          support::errorDiag(support::StatusCode::InputError, "points_to",
                             "memory operations with empty access sets")
              .with("count", static_cast<uint64_t>(EmptyAccess)));
      Done();
      return PP;
    }
  }

  // Built during the profiling run under CaptureTrace; kept on success.
  auto Summary = CaptureTrace ? std::make_shared<TraceSummary>() : nullptr;
  {
    telemetry::Span T("pipeline.prepare.profile");
    Interpreter Interp(P);
    Interp.setSummary(Summary.get());
    InterpResult IR = Interp.run(MaxSteps);
    if (!IR.Ok) {
      PP.Error = "profiling run failed: " + IR.Error;
      PP.Diags.push_back(support::errorDiag(
          support::StatusCode::ProfileError, "profile", IR.Error));
      Done();
      return PP;
    }
    PP.Prof = Interp.takeProfile();
    PP.Prof.applyHeapSizes(P);
  }
  {
    telemetry::Span T("pipeline.prepare.analyses");
    PP.Analyses = std::make_shared<const ProgramAnalyses>(P);
  }
  PP.Summary = std::move(Summary);
  PP.Ok = true;
  PP.Tables = std::make_shared<PartitionTables>();
  Done();
  return PP;
}

double gdp::partitionSeconds(const telemetry::StatsRegistry &Stats) {
  return Stats.getTime("pipeline.data_partition") +
         Stats.getTime("pipeline.rhop");
}

MachineModel gdp::machineFor(const PipelineOptions &Opt) {
  return Opt.Machine ? *Opt.Machine
                     : MachineModel::makeDefault(Opt.NumClusters,
                                                 Opt.MoveLatency);
}

namespace {

/// Dynamic access count of every object on every cluster under an existing
/// computation partition — the statistic both ProfileMax and Naive rank
/// objects by.
std::vector<std::vector<uint64_t>>
objectAccessByCluster(const Program &P, const ProfileData &Prof,
                      const ClusterAssignment &CA, unsigned NumClusters) {
  std::vector<std::vector<uint64_t>> Counts(
      P.getNumObjects(), std::vector<uint64_t>(NumClusters, 0));
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    for (const auto &BB : Fn.blocks())
      for (const auto &Op : BB->operations()) {
        if (!Op->isMemoryAccess())
          continue;
        unsigned OpId = static_cast<unsigned>(Op->getId());
        unsigned Cluster = static_cast<unsigned>(CA.get(F, OpId));
        for (const auto &[Obj, Count] : Prof.getAccessMap(F, OpId))
          Counts[static_cast<unsigned>(Obj)][Cluster] += Count;
      }
  }
  return Counts;
}

/// The unlocked (unified-memory) RHOP assignment of \p PP on \p MM, the
/// first step of Unified, Naive and ProfileMax: computed once per prepared
/// program and machine (partition/PartitionTables.h).
ClusterAssignment unlockedRHOP(const PreparedProgram &PP,
                               PartitionTables &Tables,
                               const MachineModel &MM) {
  telemetry::Span T("pipeline.rhop");
  return Tables.Unlocked
      .get(MM, [&] { return runRHOP(*PP.Analyses, PP.Prof, MM, nullptr); })
      ->Value;
}

/// GDP's data partition of \p PP on \p NumClusters clusters under \p Opt:
/// the first pass, which reads neither the move latency nor anything
/// computed after it, so it is computed once per prepared program and key
/// (partition/PartitionTables.h). The graph.coarsen fault is polled first:
/// a faulted call neither reads nor fills a slot, so a fault plan's hit
/// counts do not depend on which evaluation built the slot.
GDPResult dataPartition(const PreparedProgram &PP, PartitionTables &Tables,
                        unsigned NumClusters, const GDPOptions &Opt) {
  if (support::faultAt("graph.coarsen")) {
    GDPResult Faulted;
    Faulted.Feasible = false;
    Faulted.Placement = DataPlacement(PP.P->getNumObjects());
    Faulted.Diags.push_back(support::injectedFaultDiag("graph.coarsen"));
    return Faulted;
  }
  return Tables.DataPartitions
      .get({NumClusters, Opt},
           [&] {
             return runGlobalDataPartitioning(*PP.Analyses, PP.Prof,
                                              NumClusters, Opt);
           })
      ->Value;
}

/// GDP with built-in recovery: an infeasible first cut is retried once
/// with a relaxed byte-balance tolerance before the strategy gives up
/// (\p FailedOut) and the caller demotes to ProfileMax. \p DegradedOut is
/// set when the relaxed retry was needed, even if it then succeeded.
PipelineResult runGDPStrategy(const PreparedProgram &PP,
                              PartitionTables &Tables,
                              const PipelineOptions &Opt,
                              const MachineModel &MM, bool &FailedOut,
                              bool &DegradedOut) {
  PipelineResult R;
  {
    telemetry::Span T("pipeline.data_partition");
    GDPOptions DataOpt = Opt.DataOpt;
    if (DataOpt.ClusterCapacityShares.empty()) {
      // Heterogeneous machines: scale each cluster's data capacity with its
      // memory resources.
      bool Uniform = true;
      std::vector<double> Shares(MM.getNumClusters());
      for (unsigned C = 0; C != MM.getNumClusters(); ++C) {
        Shares[C] = std::max(1u, MM.getFUCount(C, FUKind::Memory));
        Uniform &= Shares[C] == Shares[0];
      }
      if (!Uniform)
        DataOpt.ClusterCapacityShares = std::move(Shares);
    }
    if (DataOpt.MemCapacityBytes == 0)
      DataOpt.MemCapacityBytes = MM.getClusterMemoryBytes();
    GDPResult D = dataPartition(PP, Tables, MM.getNumClusters(), DataOpt);
    for (support::Diag &Dg : D.Diags)
      R.Diags.push_back(std::move(Dg));
    if (!D.Feasible) {
      GDPOptions Relaxed = DataOpt;
      Relaxed.MemBalanceTolerance =
          std::max(0.5, DataOpt.MemBalanceTolerance * 4.0);
      R.Diags.push_back(
          support::warnDiag(support::StatusCode::Infeasible, "pipeline.retry",
                            "retrying data partition with relaxed balance "
                            "tolerance")
              .with("mem_tolerance", Relaxed.MemBalanceTolerance));
      telemetry::counter("pipeline.relaxed_retries");
      DegradedOut = true;
      D = dataPartition(PP, Tables, MM.getNumClusters(), Relaxed);
      for (support::Diag &Dg : D.Diags)
        R.Diags.push_back(std::move(Dg));
      if (!D.Feasible) {
        FailedOut = true;
        return R;
      }
    }
    R.Placement = D.Placement;
  }
  {
    telemetry::Span T("pipeline.rhop");
    if (support::faultAt("rhop.lock")) {
      R.Diags.push_back(support::injectedFaultDiag("rhop.lock"));
      FailedOut = true;
      return R;
    }
    LockMap Locks = buildLockMap(*PP.P, R.Placement, PP.Prof);
    R.Assignment = runRHOP(*PP.Analyses, PP.Prof, MM, &Locks);
  }
  R.RHOPRuns = 1;
  return R;
}

PipelineResult runProfileMaxStrategy(const PreparedProgram &PP,
                                     PartitionTables &Tables,
                                     const PipelineOptions &Opt,
                                     const MachineModel &MM,
                                     bool &FailedOut) {
  PipelineResult R;
  const Program &P = *PP.P;
  unsigned NumClusters = MM.getNumClusters();

  // First detailed run: unified-memory assumption (no locks).
  ClusterAssignment First = unlockedRHOP(PP, Tables, MM);

  telemetry::Span PlacementSpan("pipeline.data_partition");
  // Objects are grouped exactly as in GDP's coarsening (paper §4.1: "the
  // program-level graph of the application is created and coarsened as
  // before, so objects are grouped together the same").
  ProgramGraph PG(*PP.Analyses, PP.Prof);
  AccessMerge Merge(PG, P, Opt.DataOpt.Policy);
  auto Classes = Merge.objectClasses();
  auto Counts = objectAccessByCluster(P, PP.Prof, First, NumClusters);

  struct ClassInfo {
    unsigned Index;
    uint64_t Total;
    uint64_t Bytes;
    std::vector<uint64_t> PerCluster;
  };
  std::vector<ClassInfo> Infos;
  uint64_t TotalBytes = 0;
  for (unsigned I = 0; I != Classes.size(); ++I) {
    ClassInfo CI;
    CI.Index = I;
    CI.Total = 0;
    CI.Bytes = 0;
    CI.PerCluster.assign(NumClusters, 0);
    for (int Obj : Classes[I]) {
      CI.Bytes += P.getObject(static_cast<unsigned>(Obj)).getSizeBytes();
      for (unsigned C = 0; C != NumClusters; ++C) {
        CI.PerCluster[C] += Counts[static_cast<unsigned>(Obj)][C];
        CI.Total += Counts[static_cast<unsigned>(Obj)][C];
      }
    }
    TotalBytes += CI.Bytes;
    Infos.push_back(std::move(CI));
  }

  // Greedy assignment in decreasing dynamic-frequency order, with a byte
  // threshold per cluster.
  std::sort(Infos.begin(), Infos.end(),
            [](const ClassInfo &A, const ClassInfo &B) {
              if (A.Total != B.Total)
                return A.Total > B.Total;
              return A.Index < B.Index;
            });
  double Cap = (1.0 + ProfileMaxBalanceTolerance) *
               static_cast<double>(TotalBytes) / NumClusters;
  std::vector<uint64_t> ClusterBytes(NumClusters, 0);
  R.Placement = DataPlacement(P.getNumObjects());
  for (const ClassInfo &CI : Infos) {
    // Preferred cluster: most accesses in the first-pass partition.
    unsigned Pref = 0;
    for (unsigned C = 1; C != NumClusters; ++C)
      if (CI.PerCluster[C] > CI.PerCluster[Pref])
        Pref = C;
    unsigned Chosen = Pref;
    if (static_cast<double>(ClusterBytes[Pref] + CI.Bytes) > Cap) {
      // Threshold reached: force into the lightest memory instead.
      for (unsigned C = 0; C != NumClusters; ++C)
        if (ClusterBytes[C] < ClusterBytes[Chosen])
          Chosen = C;
    }
    for (int Obj : Classes[CI.Index])
      R.Placement.setHome(static_cast<unsigned>(Obj),
                          static_cast<int>(Chosen));
    ClusterBytes[Chosen] += CI.Bytes;
  }

  PlacementSpan.stop();

  // Second detailed run, cognizant of the placement.
  {
    telemetry::Span T("pipeline.rhop");
    if (support::faultAt("rhop.lock")) {
      R.Diags.push_back(support::injectedFaultDiag("rhop.lock"));
      R.RHOPRuns = 1; // The unlocked first run did happen.
      FailedOut = true;
      return R;
    }
    LockMap Locks = buildLockMap(P, R.Placement, PP.Prof);
    R.Assignment = runRHOP(*PP.Analyses, PP.Prof, MM, &Locks);
  }
  R.RHOPRuns = 2;
  return R;
}

PipelineResult runNaiveStrategy(const PreparedProgram &PP,
                                PartitionTables &Tables,
                                const MachineModel &MM) {
  PipelineResult R;
  const Program &P = *PP.P;
  unsigned NumClusters = MM.getNumClusters();

  // Data-incognizant partitioning (unified-memory assumption).
  R.Assignment = unlockedRHOP(PP, Tables, MM);
  R.RHOPRuns = 1;

  telemetry::Span PlacementSpan("pipeline.data_partition");
  // Postpass object placement: each object to the cluster with the most
  // dynamic accesses (no balance consideration, paper §2).
  auto Counts = objectAccessByCluster(P, PP.Prof, R.Assignment, NumClusters);
  R.Placement = DataPlacement(P.getNumObjects());
  for (unsigned Obj = 0; Obj != P.getNumObjects(); ++Obj) {
    unsigned Best = 0;
    for (unsigned C = 1; C != NumClusters; ++C)
      if (Counts[Obj][C] > Counts[Obj][Best])
        Best = C;
    R.Placement.setHome(Obj, static_cast<int>(Best));
  }

  // Reassign memory operations to the home of their data, the cluster
  // GDP's second pass would lock them to; the scheduler materializes the
  // transfer moves this forces.
  LockMap Locks = buildLockMap(P, R.Placement, PP.Prof);
  for (unsigned F = 0; F != Locks.size(); ++F)
    for (unsigned Id = 0; Id != Locks[F].size(); ++Id)
      if (Locks[F][Id] >= 0)
        R.Assignment.set(F, Id, Locks[F][Id]);
  PlacementSpan.stop();
  return R;
}

PipelineResult runUnifiedStrategy(const PreparedProgram &PP,
                                  PartitionTables &Tables,
                                  const MachineModel &MM) {
  PipelineResult R;
  R.Assignment = unlockedRHOP(PP, Tables, MM);
  R.RHOPRuns = 1;
  R.Placement = DataPlacement(PP.P->getNumObjects()); // All unplaced.
  return R;
}

} // namespace

PipelineResult gdp::runStrategy(const PreparedProgram &PP,
                                const PipelineOptions &Opt) {
  PipelineResult R;
  R.RequestedStrategy = Opt.Strategy;
  R.EffectiveStrategy = Opt.Strategy;

  // The per-evaluation root span: every phase timer below nests under it,
  // and the attributes identify the run in a merged multi-strategy trace.
  telemetry::Span Strat("pipeline.strategy", "pipeline");
  Strat.attr("strategy", strategyName(Opt.Strategy))
      .attr("move_latency", Opt.MoveLatency)
      .attr("clusters", Opt.NumClusters);
  if (PP.P)
    Strat.attr("program", PP.P->getName());

  if (!PP.Ok || !PP.Analyses || !PP.Tables) {
    R.Failed = true;
    R.Diags = PP.Diags;
    if (R.Diags.empty())
      R.Diags.push_back(support::errorDiag(
          support::StatusCode::Internal, "pipeline",
          PP.Error.empty() ? "program was not prepared" : PP.Error));
    return R;
  }

  unsigned Clusters =
      Opt.Machine ? Opt.Machine->getNumClusters() : Opt.NumClusters;
  if (Clusters == 0 || Clusters > MaxClusters) {
    R.Failed = true;
    R.Diags.push_back(
        support::errorDiag(support::StatusCode::InputError, "pipeline",
                           formatStr("cluster count must be between 1 and %u",
                                     MaxClusters))
            .with("clusters", static_cast<uint64_t>(Clusters)));
    return R;
  }
  MachineModel MM = machineFor(Opt);
  if (MM.getMoveLatency() == 0 || MM.getMoveLatency() > MaxMoveLatency) {
    R.Failed = true;
    R.Diags.push_back(
        support::errorDiag(support::StatusCode::InputError, "pipeline",
                           formatStr("move latency must be between 1 and "
                                     "%u cycles",
                                     MaxMoveLatency))
            .with("move_latency", static_cast<uint64_t>(MM.getMoveLatency())));
    return R;
  }

  // Degradation chain (docs/ROBUSTNESS.md): a strategy that cannot produce
  // a usable placement demotes along the paper's Table 1 quality ladder,
  // GDP → ProfileMax → Naive, accumulating RHOP runs and diagnostics
  // across the attempts. Naive and Unified have no failure modes of their
  // own, so the chain always terminates.
  // Per-evaluation budget (serving deadlines): polled between ladder
  // attempts and before the schedule phase, never mid-phase, so a result
  // under budget is bit-identical to one evaluated without a budget.
  std::unique_ptr<support::BudgetMeter> Meter;
  if (Opt.EvalBudget && !Opt.EvalBudget->unlimited())
    Meter = std::make_unique<support::BudgetMeter>(*Opt.EvalBudget);
  auto OverBudget = [&](const char *Site) {
    if (!Meter || Meter->charge(0))
      return false;
    R.Failed = true;
    R.Diags.push_back(Meter->diag(Site));
    telemetry::counter("pipeline.budget_exhausted");
    return true;
  };

  PartitionTables &Tables = *PP.Tables;
  StrategyKind Effective = Opt.Strategy;
  for (;;) {
    if (OverBudget("pipeline.strategy")) {
      R.EffectiveStrategy = Effective;
      return R;
    }
    bool AttemptFailed = false;
    PipelineResult A;
    switch (Effective) {
    case StrategyKind::GDP:
      A = runGDPStrategy(PP, Tables, Opt, MM, AttemptFailed, R.Degraded);
      break;
    case StrategyKind::ProfileMax:
      A = runProfileMaxStrategy(PP, Tables, Opt, MM, AttemptFailed);
      break;
    case StrategyKind::Naive:
      A = runNaiveStrategy(PP, Tables, MM);
      break;
    case StrategyKind::Unified:
      A = runUnifiedStrategy(PP, Tables, MM);
      break;
    }
    R.RHOPRuns += A.RHOPRuns;
    for (support::Diag &D : A.Diags)
      R.Diags.push_back(std::move(D));

    if (!AttemptFailed) {
      R.Placement = std::move(A.Placement);
      R.Assignment = std::move(A.Assignment);
      break;
    }
    StrategyKind Next = Effective == StrategyKind::GDP
                            ? StrategyKind::ProfileMax
                            : StrategyKind::Naive;
    ++R.Fallbacks;
    R.Degraded = true;
    telemetry::counter("pipeline.fallbacks");
    // Ladder transitions are individually visible in --stats: only two
    // demotions exist (GDP→ProfileMax, ProfileMax→Naive).
    telemetry::counter(Effective == StrategyKind::GDP
                           ? "pipeline.degraded.gdp_profilemax"
                           : "pipeline.degraded.profilemax_naive");
    R.Diags.push_back(support::warnDiag(
        support::StatusCode::Infeasible, "pipeline.fallback",
        formatStr("%s failed; falling back to %s", strategyName(Effective),
                  strategyName(Next))));
    Effective = Next;
  }
  R.EffectiveStrategy = Effective;
  telemetry::counter("pipeline.strategy_runs");

  if (OverBudget("pipeline.schedule"))
    return R;
  {
    telemetry::Span T("pipeline.schedule");
    if (support::faultAt("sched.estimate")) {
      R.Failed = true;
      R.Diags.push_back(support::injectedFaultDiag("sched.estimate"));
    } else {
      R.Schedule = scheduleProgram(*PP.Analyses, PP.Prof, MM, R.Assignment);
      R.Cycles = R.Schedule.TotalCycles;
      R.DynamicMoves = R.Schedule.DynamicMoves;
      R.StaticMoves = R.Schedule.StaticMoves;
    }
  }
  return R;
}
