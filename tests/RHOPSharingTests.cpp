//===- tests/RHOPSharingTests.cpp - One unlocked RHOP per preparation --------===//
//
// Unified, Naive and ProfileMax's first pass all start from the same RHOP
// run with no locks. A prepared program computes that assignment once per
// (machine, RHOP options) and hands it to every strategy that asks. These
// tests pin what makes the sharing invisible: a strategy evaluated on a
// preparation that other strategies already used returns exactly what it
// returns on a fresh preparation of its own (cycles, moves, placement,
// assignment and the record's telemetry counters), in any evaluation order
// and under concurrent evaluation.
//
// The preparation also carries one analysis bundle (CFG, loops, region
// DFGs) that RHOP, the scheduler and the simulator read instead of
// rebuilding it. The last tests pin that reading the shared bundle gives
// exactly what a bundle built for one call from the Program gives, that
// copies share it, and that a failed preparation has none.
//
//===----------------------------------------------------------------------===//

#include "GenTestUtil.h"

#include "bench/BenchCommon.h"
#include "gen/Generator.h"
#include "partition/Pipeline.h"
#include "partition/PreparedCache.h"
#include "partition/UnlockedRHOP.h"
#include "sched/ListScheduler.h"
#include "sim/Simulator.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

using namespace gdp;

namespace {

/// A program source: every preparation builds its own Program, since
/// preparation mutates the program it profiles.
struct Source {
  std::string Name;
  std::function<std::unique_ptr<Program>()> Build;
};

/// The paper's suite plus the default generated-program seeds.
std::vector<Source> sources() {
  std::vector<Source> Out;
  for (const WorkloadInfo &W : allWorkloads())
    if (W.Suite != "extra")
      Out.push_back({W.Name, W.Build});
  for (unsigned Seed = 1; Seed <= gentest::seedCount(8); ++Seed) {
    gen::GenOptions GO = gen::GenOptions::smallDifferential(Seed);
    Out.push_back({gen::reproCommand(GO),
                   [GO] { return gen::generateProgram(GO); }});
  }
  return Out;
}

/// One matrix cell on one program.
struct Cell {
  StrategyKind Strategy;
  unsigned MoveLatency;
  unsigned Clusters;
};

/// Every operation's cluster, function by function.
std::string assignmentText(const Program &P, const ClusterAssignment &CA) {
  std::string Out;
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    for (int Cl : CA.func(F))
      Out += static_cast<char>('0' + Cl);
    Out += "|";
  }
  return Out;
}

/// Everything observable about one evaluation: the deterministic bench
/// record (cycles, moves, RHOP runs, every telemetry counter) followed by
/// the data placement and the full operation assignment.
std::string observe(const std::string &Name, const PreparedProgram &PP,
                    const Cell &C) {
  PipelineOptions Opt;
  Opt.Strategy = C.Strategy;
  Opt.MoveLatency = C.MoveLatency;
  Opt.NumClusters = C.Clusters;
  telemetry::TelemetrySession Session;
  PipelineResult R;
  {
    telemetry::ScopedSession Scope(Session);
    R = runStrategy(PP, Opt);
  }
  std::string Out = bench::formatRecord(Name, strategyName(C.Strategy),
                                        C.MoveLatency, R, PP.PrepareSeconds,
                                        Session, /*Deterministic=*/true);
  Out += formatStr(" clusters=%u homes=", C.Clusters);
  for (unsigned O = 0; O != R.Placement.getNumObjects(); ++O)
    Out += std::to_string(R.Placement.getHome(O)) + ",";
  Out += " ops=" + assignmentText(*PP.P, R.Assignment);
  return Out;
}

/// A program together with its preparation.
struct Prepared {
  std::unique_ptr<Program> P;
  PreparedProgram PP;
};

Prepared prepare(const Source &S, bool CaptureTrace = false) {
  Prepared Out;
  Out.P = S.Build();
  if (Out.P)
    Out.PP = prepareProgram(*Out.P, 200000000ULL, CaptureTrace);
  return Out;
}

/// \p C evaluated on a preparation nothing else has touched.
std::string observeFresh(const Source &S, const Cell &C) {
  Prepared Fresh = prepare(S);
  if (!Fresh.PP.Ok)
    return S.Name + ": preparation failed: " + Fresh.PP.Error;
  return observe(S.Name, Fresh.PP, C);
}

} // namespace

TEST(RHOPSharing, EveryOrderEqualsFreshPreparations) {
  // Per program, every (clusters, latency, strategy) cell is evaluated
  // once on a fresh preparation of its own. Then, for each order (Unified,
  // Naive or ProfileMax first), every cell is evaluated again on ONE
  // shared preparation, configuration by configuration, strategies in
  // that order, and must match.
  const std::vector<StrategyKind> Orders[] = {
      {StrategyKind::Unified, StrategyKind::GDP, StrategyKind::ProfileMax,
       StrategyKind::Naive},
      {StrategyKind::Naive, StrategyKind::Unified, StrategyKind::ProfileMax,
       StrategyKind::GDP},
      {StrategyKind::ProfileMax, StrategyKind::GDP, StrategyKind::Naive,
       StrategyKind::Unified}};
  for (const Source &S : sources()) {
    std::map<std::tuple<StrategyKind, unsigned, unsigned>, std::string>
        Fresh;
    for (unsigned Clusters : {2u, 4u})
      for (unsigned Lat : {1u, 5u, 10u})
        for (StrategyKind K : Orders[0])
          Fresh[{K, Lat, Clusters}] = observeFresh(S, Cell{K, Lat, Clusters});
    for (const std::vector<StrategyKind> &Order : Orders) {
      Prepared Shared = prepare(S);
      ASSERT_TRUE(Shared.PP.Ok) << S.Name << ": " << Shared.PP.Error;
      for (unsigned Clusters : {2u, 4u})
        for (unsigned Lat : {1u, 5u, 10u})
          for (StrategyKind K : Order)
            EXPECT_EQ(observe(S.Name, Shared.PP, Cell{K, Lat, Clusters}),
                      (Fresh[{K, Lat, Clusters}]))
                << S.Name << " " << strategyName(K) << " lat" << Lat << " "
                << Clusters << " clusters, " << strategyName(Order[0])
                << " first";
    }
  }
}

TEST(RHOPSharing, ConcurrentStrategiesOnOnePreparationMatchSequential) {
  // All four strategies at three latencies race on one preparation per
  // program over 8 threads; cells that share an unlocked RHOP start
  // together, so they contend for the same result. Every record must
  // equal the sequential fresh-preparation record. Three rounds, each on
  // new preparations, vary the interleaving.
  std::vector<Source> All = sources();
  std::vector<Source> Picked;
  for (const Source &S : All)
    if (S.Name == "rawcaudio" || S.Name == "fir" || S.Name == "viterbi" ||
        S.Name == "g721enc")
      Picked.push_back(S);
  ASSERT_EQ(Picked.size(), 4u);

  struct Task {
    size_t Program;
    Cell C;
  };
  std::vector<Task> Tasks;
  for (size_t PI = 0; PI != Picked.size(); ++PI)
    for (unsigned Lat : {1u, 5u, 10u})
      for (StrategyKind K : {StrategyKind::Unified, StrategyKind::Naive,
                             StrategyKind::ProfileMax, StrategyKind::GDP})
        Tasks.push_back({PI, Cell{K, Lat, 2}});

  std::vector<std::string> Sequential;
  for (const Task &T : Tasks)
    Sequential.push_back(observeFresh(Picked[T.Program], T.C));

  support::ThreadPool Pool(7);
  std::vector<size_t> Indices(Tasks.size());
  std::iota(Indices.begin(), Indices.end(), 0);
  for (int Round = 0; Round != 3; ++Round) {
    std::vector<Prepared> Shared;
    for (const Source &S : Picked) {
      Shared.push_back(prepare(S));
      ASSERT_TRUE(Shared.back().PP.Ok) << S.Name;
    }
    std::vector<std::string> Got = Pool.parallelMap(Indices, [&](size_t I) {
      const Task &T = Tasks[I];
      return observe(Picked[T.Program].Name, Shared[T.Program].PP, T.C);
    });
    ASSERT_EQ(Got.size(), Sequential.size());
    for (size_t I = 0; I != Got.size(); ++I)
      EXPECT_EQ(Got[I], Sequential[I])
          << "round " << Round << ": " << Picked[Tasks[I].Program].Name
          << " " << strategyName(Tasks[I].C.Strategy) << " lat"
          << Tasks[I].C.MoveLatency;
  }
}

//===----------------------------------------------------------------------===//
// The slot table itself
//===----------------------------------------------------------------------===//

namespace {

/// A distinct machine per \p Latency (the key gdpd clients vary most).
MachineModel machineAt(unsigned Latency) {
  return MachineModel::makeDefault(2, Latency);
}

/// A stand-in RHOP run that counts its calls and records one counter.
std::function<ClusterAssignment()> countingRun(int &Runs) {
  return [&Runs] {
    ++Runs;
    telemetry::counter("test.runs");
    return ClusterAssignment();
  };
}

} // namespace

TEST(RHOPSharing, TableIsBoundedAndEvictsLeastRecentlyUsed) {
  UnlockedRHOPTable Table;
  int Runs = 0;
  for (unsigned Lat = 1; Lat <= UnlockedRHOPTable::Capacity + 2; ++Lat) {
    Table.get(machineAt(Lat), countingRun(Runs));
    EXPECT_LE(Table.size(), UnlockedRHOPTable::Capacity);
  }
  EXPECT_EQ(Runs, static_cast<int>(UnlockedRHOPTable::Capacity) + 2);
  EXPECT_EQ(Table.size(), UnlockedRHOPTable::Capacity);

  // The newest machine is resident; the two oldest were evicted.
  Table.get(machineAt(UnlockedRHOPTable::Capacity + 2), countingRun(Runs));
  EXPECT_EQ(Runs, static_cast<int>(UnlockedRHOPTable::Capacity) + 2);
  Table.get(machineAt(1), countingRun(Runs));
  EXPECT_EQ(Runs, static_cast<int>(UnlockedRHOPTable::Capacity) + 3);
}

TEST(RHOPSharing, ThrowingBuildPropagatesAndLeavesNoSlot) {
  UnlockedRHOPTable Table;
  EXPECT_THROW(Table.get(machineAt(5),
                         []() -> ClusterAssignment {
                           throw std::runtime_error("rhop failed");
                         }),
               std::runtime_error);
  EXPECT_EQ(Table.size(), 0u);
  int Runs = 0;
  Table.get(machineAt(5), countingRun(Runs));
  EXPECT_EQ(Runs, 1) << "the next caller must rebuild the dropped slot";
  EXPECT_EQ(Table.size(), 1u);
}

TEST(RHOPSharing, SlotTelemetryReachesEveryCaller) {
  // The builder and every later hit see the run's counters once each; a
  // caller without a session records nothing and still gets the result.
  UnlockedRHOPTable Table;
  int Runs = 0;
  Table.get(machineAt(5), countingRun(Runs));
  for (int Caller = 0; Caller != 2; ++Caller) {
    telemetry::TelemetrySession S;
    telemetry::ScopedSession Scope(S);
    Table.get(machineAt(5), countingRun(Runs));
    EXPECT_EQ(S.stats().getCounter("test.runs"), 1u);
  }
  EXPECT_EQ(Runs, 1);
}

//===----------------------------------------------------------------------===//
// The shared analysis bundle
//===----------------------------------------------------------------------===//

namespace {

std::string scheduleText(const ProgramSchedule &PS) {
  std::string Out = formatStr("cycles=%llu dyn=%llu static=%llu lengths=",
                              static_cast<unsigned long long>(PS.TotalCycles),
                              static_cast<unsigned long long>(PS.DynamicMoves),
                              static_cast<unsigned long long>(PS.StaticMoves));
  for (const std::vector<BlockSchedule> &Blocks : PS.Blocks) {
    for (const BlockSchedule &BS : Blocks) {
      Out += formatStr("%u/%u/%u:", BS.Length, BS.NumMoves, BS.HoistedMoves);
      for (unsigned C : BS.IssueCycle)
        Out += std::to_string(C) + " ";
      Out += "moves";
      for (unsigned C : BS.MoveIssue)
        Out += " " + std::to_string(C);
      Out += ",";
    }
    Out += "|";
  }
  return Out;
}

std::string simText(const SimResult &S) {
  std::string Out = formatStr(
      "ok=%d cycles=%llu execs=%llu bus=%llu hoisted=%llu local=%llu "
      "remote=%llu stalls=%llu/%llu/%llu util=",
      S.Ok, static_cast<unsigned long long>(S.Cycles),
      static_cast<unsigned long long>(S.BlockExecs),
      static_cast<unsigned long long>(S.BusTransfers),
      static_cast<unsigned long long>(S.HoistedTransfers),
      static_cast<unsigned long long>(S.LocalAccesses),
      static_cast<unsigned long long>(S.RemoteAccesses),
      static_cast<unsigned long long>(S.BusContentionStallCycles),
      static_cast<unsigned long long>(S.MoveLatencyStallCycles),
      static_cast<unsigned long long>(S.MemPortStallCycles));
  for (double U : S.ClusterUtilization)
    Out += formatStr("%.17g,", U);
  return Out;
}

} // namespace

TEST(RHOPSharing, SharedAnalysesEqualPerCallAnalyses) {
  // RHOP (unlocked and locked), the program schedule and the trace
  // simulation, each through the preparation's bundle and through a
  // Program (which builds a bundle for that one call), must agree.
  for (const Source &S : sources()) {
    Prepared Pr = prepare(S, /*CaptureTrace=*/true);
    ASSERT_TRUE(Pr.PP.Ok) << S.Name << ": " << Pr.PP.Error;
    const PreparedProgram &PP = Pr.PP;
    const ProgramAnalyses &Shared = *PP.Analyses;
    const Program &P = *Pr.P;
    for (unsigned Clusters : {2u, 4u}) {
      // Locks from GDP's placement for this cluster count.
      PipelineOptions Opt;
      Opt.NumClusters = Clusters;
      PipelineResult G = runStrategy(PP, Opt);
      ASSERT_TRUE(G.ok()) << S.Name;
      LockMap Locks = buildLockMap(P, G.Placement, PP.Prof);
      for (unsigned Lat : {1u, 5u, 10u}) {
        SCOPED_TRACE(formatStr("%s, %u clusters, lat%u", S.Name.c_str(),
                               Clusters, Lat));
        MachineModel MM = MachineModel::makeDefault(Clusters, Lat);
        ClusterAssignment Free = runRHOP(Shared, PP.Prof, MM, nullptr);
        EXPECT_EQ(assignmentText(P, Free),
                  assignmentText(P, runRHOP(P, PP.Prof, MM, nullptr)));
        ClusterAssignment Locked = runRHOP(Shared, PP.Prof, MM, &Locks);
        EXPECT_EQ(assignmentText(P, Locked),
                  assignmentText(P, runRHOP(P, PP.Prof, MM, &Locks)));

        ProgramSchedule Sched = scheduleProgram(Shared, PP.Prof, MM, Locked);
        ProgramSchedule PerCall = scheduleProgram(P, PP.Prof, MM, Locked);
        EXPECT_EQ(scheduleText(Sched), scheduleText(PerCall));
        SimResult Sim =
            simulateTrace(Shared, *PP.Trace, MM, Locked, Sched, G.Placement);
        EXPECT_TRUE(Sim.Ok) << Sim.Error;
        EXPECT_EQ(simText(Sim),
                  simText(simulateTrace(P, *PP.Trace, MM, Locked, PerCall,
                                        G.Placement)));
      }
    }
  }
}

TEST(RHOPSharing, CopiesAndCacheEntriesShareOneAnalysesBundle) {
  Source Fir{"fir", [] { return buildWorkload("fir"); }};
  Prepared Pr = prepare(Fir);
  ASSERT_TRUE(Pr.PP.Ok) << Pr.PP.Error;
  ASSERT_NE(Pr.PP.Analyses, nullptr);
  EXPECT_EQ(&Pr.PP.Analyses->program(), Pr.P.get());
  PreparedProgram Copy = Pr.PP;
  EXPECT_EQ(Copy.Analyses.get(), Pr.PP.Analyses.get());

  PreparedProgramCache Cache;
  auto Build = [](std::vector<support::Diag> &) {
    return buildWorkload("fir");
  };
  auto First = Cache.get("fir", false, Build);
  auto Second = Cache.get("fir", false, Build);
  ASSERT_TRUE(First->PP.Ok);
  ASSERT_NE(First->PP.Analyses, nullptr);
  EXPECT_EQ(&First->PP.Analyses->program(), First->Prog.get());
  EXPECT_EQ(Second->PP.Analyses.get(), First->PP.Analyses.get());
}

TEST(RHOPSharing, FailedPreparationHasNoAnalysesAndCannotBeSimulated) {
  // A step limit fails the profiling run after the trace was attached.
  std::unique_ptr<Program> P = buildWorkload("fir");
  PreparedProgram PP = prepareProgram(*P, /*MaxSteps=*/10,
                                      /*CaptureTrace=*/true);
  ASSERT_FALSE(PP.Ok);
  ASSERT_NE(PP.Trace, nullptr);
  EXPECT_EQ(PP.Analyses, nullptr);

  PipelineOptions Opt;
  EXPECT_TRUE(runStrategy(PP, Opt).Failed);
  SimResult S = simulateStrategy(PP, PipelineResult(), Opt);
  EXPECT_FALSE(S.Ok);
  ASSERT_NE(support::firstError(S.Diags), nullptr);
  EXPECT_EQ(support::firstError(S.Diags)->Code,
            support::StatusCode::UsageError);
}
