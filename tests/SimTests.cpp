//===- tests/SimTests.cpp - Trace-driven simulator tests ----------------------===//
//
// Validates the cycle simulator (sim/Simulator.h) against the static
// accounting it cross-checks:
//
//  * on every paper-suite workload × all four strategies at move latency
//    5, simulated cycles are >= the static estimate and within 25% of it
//    (the simulator carries real bus/port state but the static model is
//    sound for these kernels);
//  * the relative-performance strategy ordering of Figures 7/8 is
//    reproduced when recomputed from simulated cycles;
//  * tracing changes nothing about an interpretation (same InterpResult,
//    same profile) and the recorded trace is consistent with the profile;
//  * the remote-access protocol (request transfer → home memory port →
//    reply) fires on a synthetic program whose placement splits objects
//    across clusters, producing remote accesses, transit stalls and
//    port-queuing stalls that the bundled workloads (whose placements are
//    always operation-consistent) never exercise;
//  * the schedule a result carries, which the simulator replays, is the
//    schedule of that result's assignment, on the suite and the gen
//    corpus, and a schedule of the wrong shape is rejected.
//
//===----------------------------------------------------------------------===//

#include "GenTestUtil.h"

#include "bench/BenchCommon.h"
#include "gen/Generator.h"
#include "ir/IRBuilder.h"
#include "machine/MachineModel.h"
#include "partition/DataPlacement.h"
#include "partition/Pipeline.h"
#include "profile/ExecTrace.h"
#include "profile/Interpreter.h"
#include "sched/ListScheduler.h"
#include "sim/Simulator.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

using namespace gdp;

namespace {

/// The whole suite, prepared once with trace capture.
const std::vector<bench::SuiteEntry> &suite() {
  static const std::vector<bench::SuiteEntry> S =
      bench::loadSuite(/*CaptureTraces=*/true);
  return S;
}

const StrategyKind AllStrategies[] = {StrategyKind::Unified, StrategyKind::GDP,
                                      StrategyKind::ProfileMax,
                                      StrategyKind::Naive};

/// The full suite × 4 strategies at move latency 5, evaluated statically
/// and simulated, once for every test that needs it.
const std::vector<CellResult> &matrixLat5() {
  static const std::vector<CellResult> Evals = [] {
    std::vector<bench::EvalTask> Tasks;
    for (const bench::SuiteEntry &E : suite())
      for (StrategyKind K : AllStrategies)
        Tasks.push_back({&E, K, 5});
    return bench::runSimMatrix(Tasks);
  }();
  return Evals;
}

/// Why \p R's schedule is not the one the simulator should replay, or ""
/// when it is: one BlockSchedule per block, each MoveIssue ascending with
/// NumMoves entries, every block equal to a fresh schedule of
/// R.Assignment on \p MM, and the profile-weighted fold, as
/// scheduleProgram does it, giving back R's cycles and moves exactly.
std::string scheduleFoldError(const PreparedProgram &PP,
                              const PipelineResult &R,
                              const MachineModel &MM) {
  const ProgramAnalyses &PA = *PP.Analyses;
  unsigned NumFuncs = PA.program().getNumFunctions();
  if (R.Schedule.Blocks.size() != NumFuncs)
    return "no block list per function";
  uint64_t Cycles = 0, Dynamic = 0, Static = 0;
  for (unsigned F = 0; F != NumFuncs; ++F) {
    const FunctionAnalyses &FA = PA.function(F);
    if (R.Schedule.Blocks[F].size() != FA.numBlocks())
      return formatStr("f%u: not one schedule per block", F);
    for (unsigned B = 0; B != FA.numBlocks(); ++B) {
      const BlockSchedule &BS = R.Schedule.Blocks[F][B];
      if (BS.MoveIssue.size() != BS.NumMoves ||
          !std::is_sorted(BS.MoveIssue.begin(), BS.MoveIssue.end()))
        return formatStr("f%u/bb%u: move slots unsorted or miscounted", F,
                         B);
      BlockSchedule Fresh = scheduleBlock(FA.dfg(B), MM, R.Assignment.func(F));
      if (BS.Length != Fresh.Length || BS.IssueCycle != Fresh.IssueCycle ||
          BS.MoveIssue != Fresh.MoveIssue ||
          BS.HoistedMoves != Fresh.HoistedMoves)
        return formatStr("f%u/bb%u: not the schedule of the assignment", F,
                         B);
      uint64_t Freq = PP.Prof.getBlockFreq(F, B);
      Cycles += static_cast<uint64_t>(BS.Length) * Freq;
      Dynamic += static_cast<uint64_t>(BS.NumMoves) * Freq +
                 static_cast<uint64_t>(BS.HoistedMoves) *
                     FA.loops().entryCountOf(B, F, PP.Prof);
      Static += BS.NumMoves + BS.HoistedMoves;
    }
  }
  if (Cycles != R.Cycles || Dynamic != R.DynamicMoves ||
      Static != R.StaticMoves)
    return formatStr("fold %llu/%llu/%llu != result %llu/%llu/%llu",
                     static_cast<unsigned long long>(Cycles),
                     static_cast<unsigned long long>(Dynamic),
                     static_cast<unsigned long long>(Static),
                     static_cast<unsigned long long>(R.Cycles),
                     static_cast<unsigned long long>(R.DynamicMoves),
                     static_cast<unsigned long long>(R.StaticMoves));
  return "";
}

TEST(SimTest, CyclesBoundedByStaticEstimateAcrossSuite) {
  // Acceptance bound: for every (workload, strategy) at latency 5 the
  // simulation is >= the static estimate (blocks replay back to back at
  // their scheduled lengths) and within 25% of it.
  const std::vector<CellResult> &Evals = matrixLat5();
  ASSERT_EQ(Evals.size(), suite().size() * 4);
  size_t I = 0;
  for (const bench::SuiteEntry &E : suite())
    for (StrategyKind K : AllStrategies) {
      const CellResult &Ev = Evals[I++];
      ASSERT_TRUE(Ev.S.Ok) << E.Name << " " << strategyName(K) << ": "
                           << Ev.S.Error;
      EXPECT_GE(Ev.S.Cycles, Ev.R.Cycles)
          << E.Name << " " << strategyName(K)
          << ": simulation undercut the static estimate";
      EXPECT_LE(Ev.S.Cycles, Ev.R.Cycles + Ev.R.Cycles / 4)
          << E.Name << " " << strategyName(K)
          << ": simulation drifted more than 25% past the static estimate";
      EXPECT_GT(Ev.S.BlockExecs, 0u) << E.Name;
      EXPECT_EQ(scheduleFoldError(E.PP, Ev.R, MachineModel::makeDefault(2, 5)),
                "")
          << E.Name << " " << strategyName(K);
      ASSERT_EQ(Ev.S.ClusterUtilization.size(), 2u) << E.Name;
      for (double U : Ev.S.ClusterUtilization) {
        EXPECT_GE(U, 0.0) << E.Name << " " << strategyName(K);
        EXPECT_LE(U, 1.0) << E.Name << " " << strategyName(K);
      }
    }
}

TEST(SimTest, ResultScheduleIsTheAssignmentsOnGenCorpus) {
  // The suite check above, on generated programs: every strategy's result
  // carries the schedule of its own final assignment. Naive is the case
  // to watch: its memory operations move to their home clusters after
  // the shared unlocked RHOP run.
  unsigned N = gentest::seedCount(25);
  for (uint64_t Seed = 1; Seed <= N; ++Seed)
    for (const gen::GenOptions &GO : {gen::GenOptions::smallDifferential(Seed),
                                      gen::GenOptions::property(Seed)}) {
      SCOPED_TRACE(gen::reproCommand(GO));
      std::unique_ptr<Program> P = gen::generateProgram(GO);
      ASSERT_NE(P, nullptr);
      PreparedProgram PP = prepareProgram(*P);
      ASSERT_TRUE(PP.Ok) << PP.Error;
      for (StrategyKind K : AllStrategies) {
        PipelineOptions Opt;
        Opt.Strategy = K;
        PipelineResult R = runStrategy(PP, Opt);
        ASSERT_TRUE(R.ok()) << strategyName(K);
        EXPECT_EQ(scheduleFoldError(PP, R, machineFor(Opt)), "")
            << strategyName(K);
      }
    }
}

TEST(SimTest, ReproducesFig78StrategyOrdering) {
  // The headline claim of Figures 7/8 — the relative order of the
  // strategies' average relative performance — must survive the switch
  // from static to simulated cycles, and each average must stay close.
  const std::vector<CellResult> &Evals = matrixLat5();
  // Index 0 of each group of 4 is Unified (the baseline).
  const size_t NumStrategies = 4;
  std::vector<double> StaticAvg(NumStrategies, 0), SimAvg(NumStrategies, 0);
  size_t NumBench = suite().size();
  for (size_t B = 0; B != NumBench; ++B) {
    const CellResult &U = Evals[B * NumStrategies];
    for (size_t S = 1; S != NumStrategies; ++S) {
      const CellResult &Ev = Evals[B * NumStrategies + S];
      StaticAvg[S] += bench::relativePerf(U.R.Cycles, Ev.R.Cycles);
      SimAvg[S] += bench::relativePerf(U.S.Cycles, Ev.S.Cycles);
    }
  }
  std::vector<size_t> StaticOrder(NumStrategies - 1),
      SimOrder(NumStrategies - 1);
  std::iota(StaticOrder.begin(), StaticOrder.end(), 1);
  std::iota(SimOrder.begin(), SimOrder.end(), 1);
  std::sort(StaticOrder.begin(), StaticOrder.end(),
            [&](size_t A, size_t B) { return StaticAvg[A] > StaticAvg[B]; });
  std::sort(SimOrder.begin(), SimOrder.end(),
            [&](size_t A, size_t B) { return SimAvg[A] > SimAvg[B]; });
  EXPECT_EQ(StaticOrder, SimOrder)
      << "simulated cycles reorder the figure's strategy ranking";
  for (size_t S = 1; S != NumStrategies; ++S)
    EXPECT_NEAR(SimAvg[S] / static_cast<double>(NumBench),
                StaticAvg[S] / static_cast<double>(NumBench), 0.05)
        << strategyName(AllStrategies[S]);
}

// --- Trace hook: observational transparency -------------------------------

TEST(SimTest, TraceHookChangesNothingObservable) {
  // Same program interpreted with and without a trace sink: identical
  // InterpResult and identical profile on every function/block/operation.
  for (const char *Name : {"rawcaudio", "fir", "viterbi", "histogram"}) {
    auto P1 = buildWorkload(Name);
    auto P2 = buildWorkload(Name);
    ASSERT_TRUE(P1 && P2) << Name;

    Interpreter Plain(*P1);
    InterpResult RPlain = Plain.run();

    Interpreter Traced(*P2);
    ExecTrace Trace;
    Traced.setTrace(&Trace);
    InterpResult RTraced = Traced.run();

    ASSERT_TRUE(RPlain.Ok) << Name << ": " << RPlain.Error;
    ASSERT_TRUE(RTraced.Ok) << Name << ": " << RTraced.Error;
    EXPECT_EQ(RPlain.Steps, RTraced.Steps) << Name;
    EXPECT_EQ(RPlain.HasReturn, RTraced.HasReturn) << Name;
    EXPECT_EQ(RPlain.ReturnValue.I, RTraced.ReturnValue.I) << Name;
    EXPECT_EQ(RPlain.ReturnValue.F, RTraced.ReturnValue.F) << Name;

    const ProfileData &ProfPlain = Plain.getProfile();
    const ProfileData &ProfTraced = Traced.getProfile();
    uint64_t TotalFreq = 0;
    for (unsigned F = 0; F != P1->getNumFunctions(); ++F) {
      const Function &Fn = P1->getFunction(F);
      for (unsigned B = 0; B != Fn.getNumBlocks(); ++B) {
        EXPECT_EQ(ProfPlain.getBlockFreq(F, B), ProfTraced.getBlockFreq(F, B))
            << Name << " f" << F << " bb" << B;
        TotalFreq += ProfPlain.getBlockFreq(F, B);
      }
      for (unsigned Op = 0; Op != Fn.getNumOpIds(); ++Op)
        EXPECT_EQ(ProfPlain.getAccessMap(F, Op), ProfTraced.getAccessMap(F, Op))
            << Name << " f" << F << " op" << Op;
    }

    // The trace is consistent with the profile it rode along with: one
    // block event per counted block execution, one access event per
    // counted dynamic access.
    EXPECT_EQ(Trace.numBlockEvents(), TotalFreq) << Name;
    uint64_t TotalAccesses = 0;
    for (unsigned F = 0; F != P1->getNumFunctions(); ++F)
      for (unsigned Op = 0; Op != P1->getFunction(F).getNumOpIds(); ++Op)
        for (const auto &[Obj, N] : ProfPlain.getAccessMap(F, Op))
          TotalAccesses += N;
    EXPECT_EQ(Trace.numAccessEvents(), TotalAccesses) << Name;
  }
}

// --- Remote-access protocol on a synthetic split placement ----------------

/// reads[i] += a[i] over 16 elements: one load (from `a`) and one store
/// (to `out`) per iteration.
std::unique_ptr<Program> makeLoopProgram(int &AOut, int &OutOut) {
  auto P = std::make_unique<Program>("remote");
  AOut = P->addGlobal("a", 16, 4);
  std::vector<int64_t> Init(16);
  for (int I = 0; I != 16; ++I)
    Init[static_cast<unsigned>(I)] = I * 3;
  P->getObject(AOut).setInit(Init);
  OutOut = P->addGlobal("out", 16, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int ABase = B.addrOf(AOut);
  int OBase = B.addrOf(OutOut);
  auto L = B.beginCountedLoop(0, 16);
  int V = B.load(B.add(ABase, L.IndVar));
  B.store(B.add(V, B.movi(1)), B.add(OBase, L.IndVar));
  B.endCountedLoop(L);
  B.ret(B.movi(0));
  return P;
}

TEST(SimTest, RemoteAccessPaysTransferAndStalls) {
  int A = 0, Out = 0;
  auto P = makeLoopProgram(A, Out);
  Interpreter I(*P);
  ExecTrace Trace;
  I.setTrace(&Trace);
  InterpResult IR = I.run();
  ASSERT_TRUE(IR.Ok) << IR.Error;

  MachineModel MM = MachineModel::makeDefault(2, 5);
  ClusterAssignment CA(*P); // Everything on cluster 0.
  ProgramSchedule Static = scheduleProgram(*P, I.getProfile(), MM, CA);

  // All homes local: every access is served in the static schedule.
  DataPlacement Local(P->getNumObjects());
  Local.setHome(static_cast<unsigned>(A), 0);
  Local.setHome(static_cast<unsigned>(Out), 0);
  SimResult SLocal = simulateTrace(*P, Trace, MM, CA, Static, Local);
  ASSERT_TRUE(SLocal.Ok) << SLocal.Error;
  EXPECT_EQ(SLocal.RemoteAccesses, 0u);
  EXPECT_EQ(SLocal.LocalAccesses, 32u); // 16 loads + 16 stores.
  EXPECT_EQ(SLocal.MemPortStallCycles, 0u);

  // Home `a` on the other cluster: its 16 loads turn remote and pay the
  // request transfer, home-port service and reply transfer; stores to
  // `out` stay local.
  DataPlacement Split(P->getNumObjects());
  Split.setHome(static_cast<unsigned>(A), 1);
  Split.setHome(static_cast<unsigned>(Out), 0);
  SimResult SSplit = simulateTrace(*P, Trace, MM, CA, Static, Split);
  ASSERT_TRUE(SSplit.Ok) << SSplit.Error;
  EXPECT_EQ(SSplit.RemoteAccesses, 16u);
  EXPECT_EQ(SSplit.LocalAccesses, 16u);
  // Each remote load adds two transfers (request + reply) of 5 cycles each.
  EXPECT_GE(SSplit.BusTransfers, SLocal.BusTransfers + 32u);
  EXPECT_GE(SSplit.MoveLatencyStallCycles,
            SLocal.MoveLatencyStallCycles + 16u * 2u * 5u);
  EXPECT_GT(SSplit.Cycles, SLocal.Cycles);

  // Both runs bound the static estimate from above.
  EXPECT_GE(SLocal.Cycles, Static.TotalCycles);
  EXPECT_GE(SSplit.Cycles, Static.TotalCycles);
}

TEST(SimTest, RemoteRequestsQueueAtTheHomePort) {
  // Two independent loads on two different clusters, both homed on a
  // third: with enough bus bandwidth their requests arrive the same cycle
  // and the single home memory port serializes them (a memory-port
  // stall). Bandwidth 3 leaves a slot for each request next to the first
  // load's reply; the second load's value is consumed by a store on its
  // own cluster so no cross-cluster register move competes either.
  auto P = std::make_unique<Program>("portclash");
  int A = P->addGlobal("a", 8, 4);
  std::vector<int64_t> Init(8, 7);
  P->getObject(A).setInit(Init);
  int Out = P->addGlobal("out", 8, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int V1 = B.load(B.addrOf(A), 0);  // Cluster 0.
  int V2 = B.load(B.addrOf(A), 1);  // Cluster 1.
  B.store(V2, B.addrOf(Out), 0);    // Cluster 1, home-local.
  B.ret(V1);

  Interpreter I(*P);
  ExecTrace Trace;
  I.setTrace(&Trace);
  InterpResult IR = I.run();
  ASSERT_TRUE(IR.Ok) << IR.Error;

  MachineModel MM = MachineModel::makeDefault(3, 5);
  MM.setMoveBandwidth(3);

  // First addrOf+load stay on cluster 0; every object-referencing op
  // after the first load (second addrOf+load, the store and its addrOf)
  // goes to cluster 1. `a` is homed on cluster 2 so both loads go remote.
  ClusterAssignment CA(*P);
  const BasicBlock &BB = F->getEntryBlock();
  bool SawFirstLoad = false;
  unsigned NumLoads = 0;
  for (unsigned OpI = 0; OpI != BB.size(); ++OpI) {
    const Operation &Op = BB.getOp(OpI);
    bool References = Op.getOpcode() == Opcode::AddrOf ||
                      Op.getOpcode() == Opcode::Load ||
                      Op.getOpcode() == Opcode::Store;
    if (References && SawFirstLoad)
      CA.set(0, static_cast<unsigned>(Op.getId()), 1);
    if (Op.getOpcode() == Opcode::Load) {
      ++NumLoads;
      SawFirstLoad = true;
    }
  }
  ASSERT_EQ(NumLoads, 2u);

  DataPlacement PL(P->getNumObjects());
  PL.setHome(static_cast<unsigned>(A), 2);
  PL.setHome(static_cast<unsigned>(Out), 1);
  SimResult S = simulateTrace(
      *P, Trace, MM, CA, scheduleProgram(*P, I.getProfile(), MM, CA), PL);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.RemoteAccesses, 2u); // The loads; the store is home-local.
  EXPECT_EQ(S.LocalAccesses, 1u);
  EXPECT_GT(S.MemPortStallCycles, 0u)
      << "simultaneous arrivals must queue at the single home port";
  EXPECT_GE(S.MoveLatencyStallCycles, 2u * 2u * 5u);
}

TEST(SimTest, MismatchedTraceIsRejected) {
  int A = 0, Out = 0;
  auto P = makeLoopProgram(A, Out);
  Interpreter I(*P);
  ASSERT_TRUE(I.run().Ok);
  MachineModel MM = MachineModel::makeDefault(2, 5);
  ClusterAssignment CA(*P);
  DataPlacement PL(P->getNumObjects());
  ExecTrace Empty; // Never recorded against P.
  SimResult S = simulateTrace(*P, Empty, MM, CA,
                              scheduleProgram(*P, I.getProfile(), MM, CA), PL);
  EXPECT_FALSE(S.Ok);
  EXPECT_FALSE(S.Error.empty());
}

TEST(SimTest, MismatchedScheduleIsRejected) {
  // A schedule is replayed, never recomputed: one whose function, block or
  // operation counts differ from the program's is an input error, not an
  // out-of-range read.
  int A = 0, Out = 0;
  auto P = makeLoopProgram(A, Out);
  Interpreter I(*P);
  ExecTrace Trace;
  I.setTrace(&Trace);
  ASSERT_TRUE(I.run().Ok);
  MachineModel MM = MachineModel::makeDefault(2, 5);
  ClusterAssignment CA(*P);
  DataPlacement PL(P->getNumObjects());
  ProgramSchedule Good = scheduleProgram(*P, I.getProfile(), MM, CA);
  ASSERT_TRUE(simulateTrace(*P, Trace, MM, CA, Good, PL).Ok);

  ProgramSchedule NoBlock = Good;
  NoBlock.Blocks[0].pop_back();
  ProgramSchedule NoOp = Good;
  NoOp.Blocks[0][0].IssueCycle.push_back(0);
  for (const ProgramSchedule *Bad : {&NoBlock, &NoOp}) {
    SimResult S = simulateTrace(*P, Trace, MM, CA, *Bad, PL);
    EXPECT_FALSE(S.Ok);
    ASSERT_NE(support::firstError(S.Diags), nullptr);
    EXPECT_EQ(support::firstError(S.Diags)->Code,
              support::StatusCode::InputError);
  }
  SimResult S = simulateTrace(*P, Trace, MM, CA, ProgramSchedule(), PL);
  EXPECT_FALSE(S.Ok);
  EXPECT_NE(S.Error.find("schedule does not match"), std::string::npos);
}

TEST(SimTest, SimulateStrategyRequiresCapturedTrace) {
  auto P = buildWorkload("fir");
  ASSERT_TRUE(P);
  PreparedProgram PP = prepareProgram(*P); // No trace capture.
  ASSERT_TRUE(PP.Ok) << PP.Error;
  PipelineOptions Opt;
  PipelineResult R = runStrategy(PP, Opt);
  SimResult S = simulateStrategy(PP, R, Opt);
  EXPECT_FALSE(S.Ok);
  EXPECT_NE(S.Error.find("CaptureTrace"), std::string::npos);
}

} // namespace
