//===- tests/SchedTests.cpp - Scheduler/estimator unit tests -------------------===//

#include "analysis/CFG.h"
#include "analysis/DefUse.h"
#include "analysis/LoopInfo.h"
#include "analysis/OpIndex.h"
#include "ir/IRBuilder.h"
#include "machine/MachineModel.h"
#include "partition/Pipeline.h"
#include "profile/Interpreter.h"
#include "workloads/Workloads.h"
#include "sched/BlockDFG.h"
#include "sched/Estimator.h"
#include "sched/ListScheduler.h"
#include "sched/SchedulePrinter.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

using namespace gdp;

namespace {

/// Owning bundle for one function's scheduling inputs.
struct Region {
  std::unique_ptr<Program> P;
  Function *F = nullptr;
  std::unique_ptr<OpIndex> OI;
  std::unique_ptr<DefUse> DU;
  std::unique_ptr<CFG> Cfg;
  std::unique_ptr<LoopInfo> LI;
  std::unique_ptr<BlockDFG> DFG;

  /// Builds analyses and the DFG for block \p BlockId.
  void finalize(unsigned BlockId = 0) {
    OI = std::make_unique<OpIndex>(*F);
    DU = std::make_unique<DefUse>(*F);
    Cfg = std::make_unique<CFG>(*F);
    LI = std::make_unique<LoopInfo>(*F, *Cfg);
    DFG = std::make_unique<BlockDFG>(F->getBlock(BlockId), *DU, *OI,
                                     LI.get());
  }

  std::vector<int> uniformAssign(int Cluster) const {
    return std::vector<int>(F->getNumOpIds(), Cluster);
  }
};

/// main() { a=1; b=2; c=a+b; d=a*b; store; ret } — simple parallel block.
Region makeSimpleBlock() {
  Region R;
  R.P = std::make_unique<Program>("t");
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  int A = B.movi(1);
  int C = B.movi(2);
  int Sum = B.add(A, C);
  int Prod = B.mul(A, C);
  B.ret(B.add(Sum, Prod));
  R.finalize();
  return R;
}

} // namespace

// --- MachineModel ---------------------------------------------------------------

TEST(MachineModelTest, DefaultPaperMachine) {
  MachineModel MM = MachineModel::makeDefault();
  EXPECT_EQ(MM.getNumClusters(), 2u);
  EXPECT_EQ(MM.getFUCount(0, FUKind::Integer), 2u);
  EXPECT_EQ(MM.getFUCount(0, FUKind::Float), 1u);
  EXPECT_EQ(MM.getFUCount(0, FUKind::Memory), 1u);
  EXPECT_EQ(MM.getFUCount(0, FUKind::Branch), 1u);
  EXPECT_EQ(MM.getMoveLatency(), 5u);
  EXPECT_EQ(MM.getMoveBandwidth(), 1u);
}

TEST(MachineModelTest, Latencies) {
  MachineModel MM = MachineModel::makeDefault();
  EXPECT_EQ(MM.getLatency(Opcode::Add), 1u);
  EXPECT_EQ(MM.getLatency(Opcode::Load), 2u);
  EXPECT_EQ(MM.getLatency(Opcode::Mul), 3u);
  EXPECT_EQ(MM.getLatency(Opcode::ICMove), 5u);
  MM.setLatency(Opcode::Add, 4);
  EXPECT_EQ(MM.getLatency(Opcode::Add), 4u);
  MM.setMoveLatency(10);
  EXPECT_EQ(MM.getLatency(Opcode::ICMove), 10u);
}

// --- BlockDFG --------------------------------------------------------------------

TEST(BlockDFGTest, DataEdgesFollowDefUse) {
  Region R = makeSimpleBlock();
  // add and mul each consume both movis; final add consumes both.
  unsigned DataEdges = 0;
  for (const auto &E : R.DFG->edges())
    DataEdges += E.Kind == BlockDFG::EdgeKind::Data;
  EXPECT_EQ(DataEdges, 7u); // 4 into add/mul, 2 into the sum, 1 into ret.
}

TEST(BlockDFGTest, OrderEdgesIntoTerminator) {
  Region R = makeSimpleBlock();
  unsigned OrderEdges = 0;
  for (const auto &E : R.DFG->edges())
    if (E.Kind == BlockDFG::EdgeKind::Order) {
      EXPECT_EQ(E.To, R.DFG->size() - 1);
      ++OrderEdges;
    }
  EXPECT_EQ(OrderEdges, R.DFG->size() - 1); // Every non-terminator op.
}

TEST(BlockDFGTest, MemOrderingStoreThenLoad) {
  Region R;
  R.P = std::make_unique<Program>("t");
  int G = R.P->addGlobal("g", 4, 4);
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  int Base = B.addrOf(G);
  B.store(B.movi(1), Base, 0);
  int V = B.load(Base, 0);
  B.ret(V);
  // Annotate access sets by hand (points-to would do this normally).
  for (auto &Op : R.F->getEntryBlock().operations())
    if (opcodeIsMemoryAccess(Op->getOpcode()))
      Op->addAccessedObject(G);
  R.finalize();
  bool FoundMemEdge = false;
  for (const auto &E : R.DFG->edges())
    if (E.Kind == BlockDFG::EdgeKind::Mem &&
        R.DFG->getOp(E.From).getOpcode() == Opcode::Store &&
        R.DFG->getOp(E.To).getOpcode() == Opcode::Load)
      FoundMemEdge = true;
  EXPECT_TRUE(FoundMemEdge);
}

TEST(BlockDFGTest, IndependentLoadsUnordered) {
  Region R;
  R.P = std::make_unique<Program>("t");
  int G = R.P->addGlobal("g", 4, 4);
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  int Base = B.addrOf(G);
  int V1 = B.load(Base, 0);
  int V2 = B.load(Base, 1);
  B.ret(B.add(V1, V2));
  for (auto &Op : R.F->getEntryBlock().operations())
    if (opcodeIsMemoryAccess(Op->getOpcode()))
      Op->addAccessedObject(G);
  R.finalize();
  for (const auto &E : R.DFG->edges())
    EXPECT_NE(E.Kind, BlockDFG::EdgeKind::Mem);
}

TEST(BlockDFGTest, LiveInsAndHoistability) {
  Region R;
  R.P = std::make_unique<Program>("t");
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  int Inv = B.movi(42); // Defined outside the loop.
  auto L = B.beginCountedLoop(0, 10);
  B.add(Inv, L.IndVar); // Uses invariant + loop-varying value.
  B.endCountedLoop(L);
  B.ret();
  R.finalize(static_cast<unsigned>(L.Body->getId()));
  bool SawInvariant = false, SawVarying = false;
  for (const auto &LiveIn : R.DFG->liveIns()) {
    if (LiveIn.DefOpId < 0)
      continue;
    if (LiveIn.Hoistable)
      SawInvariant = true;
    else
      SawVarying = true;
  }
  EXPECT_TRUE(SawInvariant); // The movi 42 (and the loop bound).
  EXPECT_TRUE(SawVarying);   // The induction variable.
}

// --- List scheduler -----------------------------------------------------------------

TEST(SchedulerTest, SerialChainHonorsLatency) {
  Region R;
  R.P = std::make_unique<Program>("t");
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  int V = B.movi(1);
  V = B.mul(V, V); // Mul latency 3.
  V = B.mul(V, V);
  B.ret(V);
  R.finalize();
  MachineModel MM = MachineModel::makeDefault();
  BlockSchedule BS = scheduleBlock(*R.DFG, MM, R.uniformAssign(0));
  // movi(1) + mul(3) + mul(3) + terminator: completion ≥ 7.
  EXPECT_GE(BS.Length, 7u);
  EXPECT_EQ(BS.NumMoves, 0u);
}

TEST(SchedulerTest, IntegerUnitsLimitThroughput) {
  // 8 independent movi ops, 2 integer units on one cluster: ≥ 4 cycles.
  Region R;
  R.P = std::make_unique<Program>("t");
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  for (int I = 0; I != 8; ++I)
    B.movi(I);
  B.ret();
  R.finalize();
  MachineModel MM = MachineModel::makeDefault();
  BlockSchedule BS = scheduleBlock(*R.DFG, MM, R.uniformAssign(0));
  EXPECT_GE(BS.Length, 4u);
  // Splitting across both clusters roughly halves it.
  std::vector<int> Split = R.uniformAssign(0);
  for (unsigned I = 0; I < R.F->getNumOpIds(); I += 2)
    Split[I] = 1;
  BlockSchedule BS2 = scheduleBlock(*R.DFG, MM, Split);
  EXPECT_LT(BS2.Length, BS.Length);
}

TEST(SchedulerTest, CrossClusterEdgeCostsMoveLatency) {
  Region R = makeSimpleBlock();
  MachineModel MM = MachineModel::makeDefault(2, /*MoveLatency=*/5);
  BlockSchedule Local = scheduleBlock(*R.DFG, MM, R.uniformAssign(0));
  // Put the final add (and ret) on cluster 1: its operands must move.
  std::vector<int> Split = R.uniformAssign(0);
  const BasicBlock &BB = R.F->getEntryBlock();
  Split[static_cast<unsigned>(BB.getOp(BB.size() - 2).getId())] = 1;
  Split[static_cast<unsigned>(BB.getOp(BB.size() - 1).getId())] = 1;
  BlockSchedule Crossed = scheduleBlock(*R.DFG, MM, Split);
  EXPECT_GE(Crossed.Length, Local.Length + 4);
  EXPECT_GE(Crossed.NumMoves, 2u);
}

TEST(SchedulerTest, MoveSharedAcrossConsumers) {
  // One producer, three consumers on the other cluster: one move only.
  Region R;
  R.P = std::make_unique<Program>("t");
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  int V = B.movi(3);
  int A = B.add(V, V);
  int C = B.mul(V, V);
  int D = B.sub(V, V);
  B.ret(B.add(B.add(A, C), D));
  R.finalize();
  MachineModel MM = MachineModel::makeDefault();
  std::vector<int> Assign = R.uniformAssign(1);
  Assign[static_cast<unsigned>(
      R.F->getEntryBlock().getOp(0).getId())] = 0; // Producer on 0.
  BlockSchedule BS = scheduleBlock(*R.DFG, MM, Assign);
  EXPECT_EQ(BS.NumMoves, 1u);
}

TEST(SchedulerTest, BusBandwidthSerializesMoves) {
  // Many independent cross-cluster values with bandwidth 1: length grows
  // with the move count.
  Region R;
  R.P = std::make_unique<Program>("t");
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  std::vector<int> Vals;
  for (int I = 0; I != 6; ++I)
    Vals.push_back(B.movi(I));
  int Acc = B.movi(0);
  for (int V : Vals)
    Acc = B.add(Acc, V);
  B.ret(Acc);
  R.finalize();
  MachineModel MM = MachineModel::makeDefault(2, 1);
  // Producers on 0, consumers on 1.
  std::vector<int> Assign = R.uniformAssign(1);
  for (unsigned I = 0; I != 6; ++I)
    Assign[static_cast<unsigned>(
        R.F->getEntryBlock().getOp(I).getId())] = 0;
  BlockSchedule BS = scheduleBlock(*R.DFG, MM, Assign);
  EXPECT_EQ(BS.NumMoves, 6u);
  // 6 moves over a 1-wide bus: the last cannot arrive before cycle 6+1.
  EXPECT_GE(BS.Length, 7u);
}

TEST(SchedulerTest, ProgramCyclesWeightByFrequency) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  auto L = B.beginCountedLoop(0, 50);
  B.endCountedLoop(L);
  B.ret();
  Interpreter I(*P);
  ASSERT_TRUE(I.run().Ok);
  MachineModel MM = MachineModel::makeDefault();
  ClusterAssignment CA(*P);
  ProgramSchedule PS = scheduleProgram(*P, I.getProfile(), MM, CA);
  // Cycles at least (body length × 50).
  EXPECT_GE(PS.TotalCycles, 50u);
  EXPECT_EQ(PS.DynamicMoves, 0u); // Everything on one cluster.
}

TEST(SchedulerTest, HoistedInvariantMovesChargedPerEntry) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Inv = B.movi(42);
  auto L = B.beginCountedLoop(0, 100);
  B.add(Inv, L.IndVar);
  B.endCountedLoop(L);
  B.ret();
  Interpreter I(*P);
  ASSERT_TRUE(I.run().Ok);
  MachineModel MM = MachineModel::makeDefault();
  // Put the invariant's producer on cluster 1, everything else on 0.
  ClusterAssignment CA(*P);
  CA.set(0, static_cast<unsigned>(F->getEntryBlock().getOp(0).getId()), 1);
  ProgramSchedule PS = scheduleProgram(*P, I.getProfile(), MM, CA);
  // The invariant transfer is paid once per loop entry (1), not per
  // iteration (100).
  EXPECT_LT(PS.DynamicMoves, 10u);
  EXPECT_GE(PS.DynamicMoves, 1u);
}

// --- Estimator -------------------------------------------------------------------

TEST(EstimatorTest, MatchesResourceBound) {
  // 9 independent integer ops on one cluster with 2 units: bound ≥ 5.
  Region R;
  R.P = std::make_unique<Program>("t");
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  for (int I = 0; I != 9; ++I)
    B.movi(I);
  B.ret();
  R.finalize();
  MachineModel MM = MachineModel::makeDefault();
  ScheduleEstimator Est(*R.DFG, MM);
  ScheduleEstimator::State S;
  S.load(Est, R.uniformAssign(0));
  EXPECT_GE(S.length(), 5u);
}

TEST(EstimatorTest, CrossClusterAddsMoveLatencyToCP) {
  Region R = makeSimpleBlock();
  MachineModel MM = MachineModel::makeDefault(2, 5);
  ScheduleEstimator Est(*R.DFG, MM);
  ScheduleEstimator::State S;
  S.load(Est, R.uniformAssign(0));
  unsigned Local = S.length();
  std::vector<int> Split = R.uniformAssign(0);
  const BasicBlock &BB = R.F->getEntryBlock();
  Split[static_cast<unsigned>(BB.getOp(BB.size() - 2).getId())] = 1;
  Split[static_cast<unsigned>(BB.getOp(BB.size() - 1).getId())] = 1;
  S.load(Est, Split);
  EXPECT_GE(S.length(), Local + 4);
}

TEST(EstimatorTest, CountMovesDedups) {
  Region R;
  R.P = std::make_unique<Program>("t");
  R.F = R.P->makeFunction("main", 0);
  IRBuilder B(R.F);
  B.setInsertPoint(R.F->makeBlock("entry"));
  int V = B.movi(3);
  B.add(V, V);
  B.mul(V, V);
  B.ret();
  R.finalize();
  MachineModel MM = MachineModel::makeDefault();
  ScheduleEstimator Est(*R.DFG, MM);
  std::vector<int> Assign = R.uniformAssign(1);
  Assign[static_cast<unsigned>(
      R.F->getEntryBlock().getOp(0).getId())] = 0;
  ScheduleEstimator::State S;
  S.load(Est, Assign);
  EXPECT_EQ(S.moves(), 1u);
}

TEST(EstimatorTest, TracksSchedulerOrdering) {
  // The estimate must not exceed the real schedule by much, and both must
  // rank a bad split worse than the local assignment.
  Region R = makeSimpleBlock();
  MachineModel MM = MachineModel::makeDefault(2, 10);
  ScheduleEstimator Est(*R.DFG, MM);
  BlockSchedule Real = scheduleBlock(*R.DFG, MM, R.uniformAssign(0));
  ScheduleEstimator::State S;
  S.load(Est, R.uniformAssign(0));
  EXPECT_LE(S.length(), Real.Length + 2);
}

TEST(SchedulePrinterTest, RendersEveryIssuedOperation) {
  Region R = makeSimpleBlock();
  MachineModel MM = MachineModel::makeDefault();
  std::vector<int> Assign = R.uniformAssign(0);
  // Put the mul on cluster 1 so the dump shows both columns and a move.
  Assign[static_cast<unsigned>(
      R.F->getEntryBlock().getOp(3).getId())] = 1;
  BlockSchedule BS = scheduleBlock(*R.DFG, MM, Assign);
  std::string Dump = printBlockSchedule(*R.DFG, BS, MM, Assign);
  EXPECT_NE(Dump.find("cluster 0"), std::string::npos);
  EXPECT_NE(Dump.find("cluster 1"), std::string::npos);
  EXPECT_NE(Dump.find("mul"), std::string::npos);
  EXPECT_NE(Dump.find("intercluster moves"), std::string::npos);
  EXPECT_NE(Dump.find(formatStr("length %u cycles", BS.Length)),
            std::string::npos);
}

TEST(EstimatorTest, LowerBoundsRealScheduleAcrossSuite) {
  // Systematic property: on every block of every paper-suite workload,
  // under the GDP assignment, the estimate never exceeds the scheduled
  // length (it is a max of lower bounds; see Estimator.h) — at each of
  // the paper's three intercluster move latencies, whose cross-cluster
  // edge penalties the estimate and the scheduler must agree on.
  for (const WorkloadInfo &W : allWorkloads()) {
    if (W.Suite == "extra")
      continue;
    auto P = W.Build();
    PreparedProgram PP = prepareProgram(*P);
    ASSERT_TRUE(PP.Ok) << W.Name;
    for (unsigned Lat : {1u, 5u, 10u}) {
      PipelineOptions Opt;
      Opt.Strategy = StrategyKind::GDP;
      Opt.MoveLatency = Lat;
      PipelineResult Res = runStrategy(PP, Opt);
      MachineModel MM = machineFor(Opt);
      for (const auto &F : P->functions()) {
        OpIndex OI(*F);
        DefUse DU(*F);
        CFG Cfg(*F);
        LoopInfo LI(*F, Cfg);
        for (unsigned Bk = 0; Bk != F->getNumBlocks(); ++Bk) {
          BlockDFG DFG(F->getBlock(Bk), DU, OI, &LI);
          const std::vector<int> &Assign =
              Res.Assignment.func(static_cast<unsigned>(F->getId()));
          BlockSchedule BS = scheduleBlock(DFG, MM, Assign);
          ScheduleEstimator Est(DFG, MM);
          ScheduleEstimator::State S;
          S.load(Est, Assign);
          EXPECT_LE(S.length(), BS.Length)
              << W.Name << " " << F->getName() << " bb" << Bk << " lat"
              << Lat;
        }
      }
    }
  }
}
