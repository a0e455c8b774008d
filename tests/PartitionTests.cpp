//===- tests/PartitionTests.cpp - Core partitioning unit tests ----------------===//

#include "analysis/PointsTo.h"
#include "ir/IRBuilder.h"
#include "partition/AccessMerge.h"
#include "partition/Exhaustive.h"
#include "partition/GlobalDataPartitioner.h"
#include "opt/Transforms.h"
#include "partition/DotExport.h"
#include "partition/Pipeline.h"
#include "partition/ProgramGraph.h"
#include "partition/RHOP.h"
#include "analysis/DefUse.h"
#include "analysis/OpIndex.h"
#include "sched/BlockDFG.h"
#include "sched/ListScheduler.h"
#include "workloads/Workloads.h"

#include <functional>

#include <gtest/gtest.h>

#include <set>

using namespace gdp;

namespace {

/// Two independent pipelines over disjoint objects: a-chain and b-chain.
/// The natural data partition puts each chain on its own cluster.
std::unique_ptr<Program> makeTwoChains() {
  auto P = std::make_unique<Program>("chains");
  int A = P->addGlobal("aIn", 64, 4);
  {
    std::vector<int64_t> Init(64);
    for (int I = 0; I != 64; ++I)
      Init[static_cast<unsigned>(I)] = I;
    P->getObject(A).setInit(Init);
  }
  int AOut = P->addGlobal("aOut", 64, 4);
  int Bo = P->addGlobal("bIn", 64, 4);
  {
    std::vector<int64_t> Init(64);
    for (int I = 0; I != 64; ++I)
      Init[static_cast<unsigned>(I)] = 100 - I;
    P->getObject(Bo).setInit(Init);
  }
  int BOut = P->addGlobal("bOut", 64, 4);

  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int ABase = B.addrOf(A);
  int AOBase = B.addrOf(AOut);
  int BBase = B.addrOf(Bo);
  int BOBase = B.addrOf(BOut);
  auto L = B.beginCountedLoop(0, 64);
  int VA = B.load(B.add(ABase, L.IndVar));
  B.store(B.mul(VA, B.movi(3)), B.add(AOBase, L.IndVar));
  int VB = B.load(B.add(BBase, L.IndVar));
  B.store(B.add(VB, B.movi(7)), B.add(BOBase, L.IndVar));
  B.endCountedLoop(L);
  B.ret(B.movi(0));
  return P;
}

/// Figure-4 shaped program: one load may access either of two objects.
std::unique_ptr<Program> makeFig4() {
  auto P = std::make_unique<Program>("fig4");
  int X = P->addHeapSite("x", 4);
  int Y = P->addGlobal("value1", 16, 4);
  int Z = P->addGlobal("value2", 16, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int XP = B.mallocOp(B.movi(16), X);
  int YP = B.addrOf(Y);
  int ZP = B.addrOf(Z);
  B.store(B.movi(5), YP, 1);
  int Foo = B.select(B.movi(1), XP, YP);
  int V = B.load(Foo); // May access x or value1.
  int W = B.load(ZP);  // Only value2.
  B.store(B.add(V, W), ZP, 2);
  B.ret(V);
  return P;
}

} // namespace

// --- ProgramGraph -------------------------------------------------------------

TEST(ProgramGraphTest, NodesCoverAllOps) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok) << PP.Error;
  ProgramGraph PG(*P, PP.Prof);
  unsigned RealOps = 0;
  for (unsigned N = 0; N != PG.getNumNodes(); ++N)
    RealOps += PG.getOp(N) != nullptr;
  EXPECT_EQ(RealOps, P->getNumOps());
}

TEST(ProgramGraphTest, EdgesWeightedByFrequency) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  ProgramGraph PG(*P, PP.Prof);
  // The loop body executes 64 times; flow edges inside it carry that
  // weight.
  uint64_t MaxW = 0;
  for (const auto &E : PG.edges())
    MaxW = std::max(MaxW, E.W);
  EXPECT_GE(MaxW, 64u);
}

TEST(ProgramGraphTest, FuncOpRoundTrip) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  ProgramGraph PG(*P, PP.Prof);
  unsigned Node = PG.nodeOf(0, 3);
  auto [F, Op] = PG.funcOpOf(Node);
  EXPECT_EQ(F, 0u);
  EXPECT_EQ(Op, 3u);
}

// --- AccessMerge ------------------------------------------------------------------

TEST(AccessMergeTest, Figure4MergesAmbiguousObjects) {
  auto P = makeFig4();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok) << PP.Error;
  ProgramGraph PG(*P, PP.Prof);
  AccessMerge M(PG, *P, MergePolicy::AccessPattern);
  // x and value1 are reachable from one load: same group. value2 is
  // separate.
  EXPECT_EQ(M.groupOfObject(0), M.groupOfObject(1));
  EXPECT_NE(M.groupOfObject(0), M.groupOfObject(2));
}

TEST(AccessMergeTest, OpsAccessingSameObjectMerge) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  ProgramGraph PG(*P, PP.Prof);
  AccessMerge M(PG, *P, MergePolicy::AccessPattern);
  // All four objects stay in distinct groups (no op touches two).
  std::set<unsigned> Groups;
  for (unsigned O = 0; O != 4; ++O)
    Groups.insert(M.groupOfObject(O));
  EXPECT_EQ(Groups.size(), 4u);
}

TEST(AccessMergeTest, NonePolicyKeepsSingletons) {
  auto P = makeFig4();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  ProgramGraph PG(*P, PP.Prof);
  AccessMerge M(PG, *P, MergePolicy::None);
  EXPECT_NE(M.groupOfObject(0), M.groupOfObject(1));
  EXPECT_EQ(M.getNumGroups(), PG.getNumNodes() + P->getNumObjects());
}

TEST(AccessMergeTest, ObjectClassesPartitionObjects) {
  auto P = makeFig4();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  ProgramGraph PG(*P, PP.Prof);
  AccessMerge M(PG, *P, MergePolicy::AccessPattern);
  auto Classes = M.objectClasses();
  unsigned Total = 0;
  for (const auto &C : Classes)
    Total += static_cast<unsigned>(C.size());
  EXPECT_EQ(Total, P->getNumObjects());
}

// --- GlobalDataPartitioner ----------------------------------------------------------

TEST(GDPTest, PlacesEveryObject) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  GDPResult R = runGlobalDataPartitioning(*P, PP.Prof, 2);
  for (unsigned O = 0; O != P->getNumObjects(); ++O) {
    EXPECT_GE(R.Placement.getHome(O), 0);
    EXPECT_LT(R.Placement.getHome(O), 2);
  }
}

TEST(GDPTest, BalancesBytesOnSymmetricProgram) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  GDPResult R = runGlobalDataPartitioning(*P, PP.Prof, 2);
  auto Bytes = R.Placement.bytesPerCluster(*P, 2);
  EXPECT_EQ(Bytes[0] + Bytes[1], 4u * 64 * 4);
  EXPECT_EQ(Bytes[0], Bytes[1]); // Perfectly symmetric program.
}

TEST(GDPTest, KeepsChainObjectsTogether) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  GDPResult R = runGlobalDataPartitioning(*P, PP.Prof, 2);
  // aIn with aOut, bIn with bOut (cutting a chain would cost hot edges).
  EXPECT_EQ(R.Placement.getHome(0), R.Placement.getHome(1));
  EXPECT_EQ(R.Placement.getHome(2), R.Placement.getHome(3));
  EXPECT_NE(R.Placement.getHome(0), R.Placement.getHome(2));
}

TEST(GDPTest, MergedObjectsShareHome) {
  auto P = makeFig4();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  GDPResult R = runGlobalDataPartitioning(*P, PP.Prof, 2);
  EXPECT_EQ(R.Placement.getHome(0), R.Placement.getHome(1));
}

TEST(GDPTest, DeterministicForSeed) {
  auto P1 = makeTwoChains();
  auto P2 = makeTwoChains();
  PreparedProgram PP1 = prepareProgram(*P1), PP2 = prepareProgram(*P2);
  ASSERT_TRUE(PP1.Ok && PP2.Ok);
  GDPResult A = runGlobalDataPartitioning(*P1, PP1.Prof, 2);
  GDPResult B = runGlobalDataPartitioning(*P2, PP2.Prof, 2);
  for (unsigned O = 0; O != P1->getNumObjects(); ++O)
    EXPECT_EQ(A.Placement.getHome(O), B.Placement.getHome(O));
}

// --- DataPlacement / LockMap ---------------------------------------------------------

TEST(DataPlacementTest, SizeImbalanceExtremes) {
  auto P = makeTwoChains();
  DataPlacement Balanced(4);
  Balanced.setHome(0, 0);
  Balanced.setHome(1, 0);
  Balanced.setHome(2, 1);
  Balanced.setHome(3, 1);
  EXPECT_DOUBLE_EQ(Balanced.sizeImbalance(*P, 2), 0.0);
  DataPlacement OneSided(4);
  for (unsigned O = 0; O != 4; ++O)
    OneSided.setHome(O, 0);
  EXPECT_DOUBLE_EQ(OneSided.sizeImbalance(*P, 2), 1.0);
}

TEST(DataPlacementTest, LockMapPinsMemoryOps) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  DataPlacement Placement(4);
  Placement.setHome(0, 0);
  Placement.setHome(1, 0);
  Placement.setHome(2, 1);
  Placement.setHome(3, 1);
  LockMap Locks = buildLockMap(*P, Placement, PP.Prof);
  const Function &F = P->getEntry();
  unsigned LockedMem = 0;
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations()) {
      int Lock = Locks[0][static_cast<unsigned>(Op->getId())];
      if (Op->isMemoryAccess()) {
        EXPECT_GE(Lock, 0);
        ++LockedMem;
      } else {
        EXPECT_EQ(Lock, -1);
      }
    }
  EXPECT_EQ(LockedMem, 4u);
}

// --- RHOP ---------------------------------------------------------------------------

TEST(RHOPTest, RespectsLocks) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  DataPlacement Placement(4);
  Placement.setHome(0, 1);
  Placement.setHome(1, 1);
  Placement.setHome(2, 0);
  Placement.setHome(3, 0);
  LockMap Locks = buildLockMap(*P, Placement, PP.Prof);
  MachineModel MM = MachineModel::makeDefault();
  ClusterAssignment CA = runRHOP(*P, PP.Prof, MM, &Locks);
  const Function &F = P->getEntry();
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations()) {
      int Lock = Locks[0][static_cast<unsigned>(Op->getId())];
      if (Lock >= 0) {
        EXPECT_EQ(CA.get(0, static_cast<unsigned>(Op->getId())), Lock)
            << "locked op moved";
      }
    }
}

TEST(RHOPTest, AssignsValidClusters) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  MachineModel MM = MachineModel::makeDefault();
  ClusterAssignment CA = runRHOP(*P, PP.Prof, MM, nullptr);
  const Function &F = P->getEntry();
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations()) {
      int C = CA.get(0, static_cast<unsigned>(Op->getId()));
      EXPECT_GE(C, 0);
      EXPECT_LT(C, 2);
    }
}

TEST(RHOPTest, SingleClusterMachineDegenerates) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  MachineModel MM = MachineModel::makeDefault(1);
  ClusterAssignment CA = runRHOP(*P, PP.Prof, MM, nullptr);
  const Function &F = P->getEntry();
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations())
      EXPECT_EQ(CA.get(0, static_cast<unsigned>(Op->getId())), 0);
}

TEST(RHOPTest, DeterministicForSeed) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  MachineModel MM = MachineModel::makeDefault();
  ClusterAssignment A = runRHOP(*P, PP.Prof, MM, nullptr);
  ClusterAssignment B = runRHOP(*P, PP.Prof, MM, nullptr);
  EXPECT_EQ(A.func(0), B.func(0));
}

// --- Strategies / pipeline --------------------------------------------------------------

TEST(PipelineTest, PrepareRejectsBrokenProgram) {
  auto P = std::make_unique<Program>("bad");
  P->makeFunction("main", 0); // No blocks.
  PreparedProgram PP = prepareProgram(*P);
  EXPECT_FALSE(PP.Ok);
  EXPECT_FALSE(PP.Error.empty());
}

TEST(PipelineTest, UnifiedLeavesObjectsUnplaced) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::Unified;
  PipelineResult R = runStrategy(PP, Opt);
  for (unsigned O = 0; O != P->getNumObjects(); ++O)
    EXPECT_EQ(R.Placement.getHome(O), -1);
  EXPECT_GT(R.Cycles, 0u);
}

TEST(PipelineTest, StrategiesProduceCompleteResults) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  for (StrategyKind K : {StrategyKind::GDP, StrategyKind::ProfileMax,
                         StrategyKind::Naive, StrategyKind::Unified}) {
    PipelineOptions Opt;
    Opt.Strategy = K;
    PipelineResult R = runStrategy(PP, Opt);
    EXPECT_GT(R.Cycles, 0u) << strategyName(K);
    EXPECT_GE(R.RHOPRuns, 1u);
    if (K == StrategyKind::ProfileMax) {
      EXPECT_EQ(R.RHOPRuns, 2u);
    }
  }
}

TEST(PipelineTest, MoveLatencyOutsideItsRangeIsAnInputError) {
  // One range for every entry point: 0 and anything above MaxMoveLatency
  // fail before any partitioning work, on the options and on a custom
  // machine alike.
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  ASSERT_EQ(MaxMoveLatency, 1000u);
  for (unsigned Lat : {0u, 1u, 1000u, 1001u}) {
    PipelineOptions Opt;
    Opt.MoveLatency = Lat;
    PipelineResult R = runStrategy(PP, Opt);
    MachineModel MM = MachineModel::makeDefault(2, Lat);
    PipelineOptions OnMachine;
    OnMachine.Machine = &MM;
    PipelineResult RM = runStrategy(PP, OnMachine);
    bool InRange = Lat >= 1 && Lat <= MaxMoveLatency;
    for (const PipelineResult *Res : {&R, &RM}) {
      EXPECT_EQ(Res->ok(), InRange) << "latency " << Lat;
      if (InRange)
        continue;
      const support::Diag *D = support::firstError(Res->Diags);
      ASSERT_NE(D, nullptr) << "latency " << Lat;
      EXPECT_EQ(D->Code, support::StatusCode::InputError);
      EXPECT_EQ(Res->RHOPRuns, 0u);
    }
  }
}

TEST(PipelineTest, NaivePlacementIsAccessMajority) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::Naive;
  PipelineResult R = runStrategy(PP, Opt);
  // Every object must be placed on some cluster.
  for (unsigned O = 0; O != P->getNumObjects(); ++O)
    EXPECT_GE(R.Placement.getHome(O), 0);
}

TEST(PipelineTest, ProfileMaxRespectsByteThreshold) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::ProfileMax;
  PipelineResult R = runStrategy(PP, Opt);
  auto Bytes = R.Placement.bytesPerCluster(*P, 2);
  uint64_t Total = Bytes[0] + Bytes[1];
  double Cap =
      (1.0 + ProfileMaxBalanceTolerance) * static_cast<double>(Total) / 2.0;
  EXPECT_LE(static_cast<double>(Bytes[0]), Cap + 256);
  EXPECT_LE(static_cast<double>(Bytes[1]), Cap + 256);
}

TEST(PipelineTest, MoveLatencyMonotonicity) {
  // Higher intercluster latency can only hurt a fixed strategy's cycles
  // on this symmetric program.
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  uint64_t Prev = 0;
  for (unsigned Lat : {1u, 5u, 10u}) {
    PipelineOptions Opt;
    Opt.Strategy = StrategyKind::GDP;
    Opt.MoveLatency = Lat;
    PipelineResult R = runStrategy(PP, Opt);
    EXPECT_GE(R.Cycles + 64, Prev) << "latency " << Lat; // Small slack.
    Prev = R.Cycles;
  }
}

TEST(PipelineTest, CustomMachineOverride) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  MachineModel MM = MachineModel::makeDefault(4, 3);
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  Opt.Machine = &MM;
  PipelineResult R = runStrategy(PP, Opt);
  EXPECT_GT(R.Cycles, 0u);
  for (unsigned O = 0; O != P->getNumObjects(); ++O)
    EXPECT_LT(R.Placement.getHome(O), 4);
}

// --- Exhaustive search ---------------------------------------------------------------------

TEST(ExhaustiveTest, EnumeratesAllMasksAndBrackets) {
  auto P = makeFig4(); // 3 objects → 8 placements.
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  PipelineOptions Opt;
  ExhaustiveResult R = exhaustiveSearch(PP, Opt);
  EXPECT_EQ(R.Points.size(), 8u);
  EXPECT_LE(R.BestCycles, R.WorstCycles);
  for (const auto &Pt : R.Points) {
    EXPECT_GE(Pt.Cycles, R.BestCycles);
    EXPECT_LE(Pt.Cycles, R.WorstCycles);
    EXPECT_GE(Pt.Imbalance, 0.0);
    EXPECT_LE(Pt.Imbalance, 1.0);
  }
  // Complementary masks perform identically (homogeneous clusters).
  for (unsigned M = 0; M != 8; ++M)
    EXPECT_EQ(R.Points[M].Cycles, R.Points[7 - M].Cycles)
        << "mask " << M;
}

TEST(ExhaustiveTest, StrategyMasksAreWithinEnvelope) {
  auto P = makeFig4();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  PipelineOptions Opt;
  ExhaustiveResult R = exhaustiveSearch(PP, Opt);
  EXPECT_LT(R.GDPMask, 8u);
  EXPECT_LT(R.ProfileMaxMask, 8u);
}

TEST(PipelineTest, HeterogeneousMachineSkewsDataTowardWideCluster) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  MachineModel MM = MachineModel::makeDefault(2, 5);
  ClusterConfig Wide;
  Wide.NumInteger = 4;
  Wide.NumMemory = 3; // Triple the memory resources on cluster 0.
  MM.setCluster(0, Wide);
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  Opt.Machine = &MM;
  PipelineResult R = runStrategy(PP, Opt);
  auto Bytes = R.Placement.bytesPerCluster(*P, 2);
  // With 3:1 memory shares the wide cluster holds at least half the data.
  EXPECT_GE(Bytes[0], Bytes[1]);
}

TEST(DotExportTest, ProgramGraphDotIsWellFormed) {
  auto P = makeFig4();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  ProgramGraph PG(*P, PP.Prof);
  AccessMerge Merge(PG, *P, MergePolicy::AccessPattern);
  GDPResult D = runGlobalDataPartitioning(*P, PP.Prof, 2);
  std::string Dot = exportProgramGraphDot(*P, PG, Merge, &D.Placement);
  EXPECT_EQ(Dot.rfind("digraph program {", 0), 0u);
  EXPECT_NE(Dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_NE(Dot.find("value1"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
  EXPECT_EQ(Dot.back(), '\n');
}

TEST(DotExportTest, RegionDotColorsClusters) {
  auto P = makeTwoChains();
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  const Function &F = P->getEntry();
  OpIndex OI(F);
  DefUse DU(F);
  BlockDFG DFG(F.getBlock(2), DU, OI); // Loop body.
  std::vector<int> Assign(F.getNumOpIds(), 0);
  for (unsigned I = 0; I < F.getNumOpIds(); I += 2)
    Assign[I] = 1;
  std::string Dot = exportRegionDot(DFG, Assign);
  EXPECT_EQ(Dot.rfind("digraph region {", 0), 0u);
  EXPECT_NE(Dot.find("doublecircle"), std::string::npos); // Memory ops.
  EXPECT_NE(Dot.find("#a6cee3"), std::string::npos);
  EXPECT_NE(Dot.find("#fdbf6f"), std::string::npos);
}

TEST(RHOPTest, KeepsCriticalChainTogether) {
  // A long serial multiply chain plus independent side work: splitting the
  // chain across clusters would add move latency to every link, so RHOP
  // must keep it on one cluster.
  auto P = std::make_unique<Program>("chain");
  int G = P->addGlobal("g", 4, 4);
  P->getObject(G).setInit({3, 0, 0, 0});
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(G);
  int V = B.load(Base, 0);
  std::vector<int> Chain{V};
  for (int I = 0; I != 6; ++I) {
    V = B.mul(V, V);
    Chain.push_back(V);
  }
  B.store(V, Base, 1);
  B.ret(V);
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok) << PP.Error;
  MachineModel MM = MachineModel::makeDefault(2, 10); // Expensive moves.
  ClusterAssignment CA = runRHOP(*P, PP.Prof, MM, nullptr);
  // All chain multiplies share one cluster.
  const BasicBlock &BB = F->getEntryBlock();
  std::set<int> ChainClusters;
  for (const auto &Op : BB.operations())
    if (Op->getOpcode() == Opcode::Mul)
      ChainClusters.insert(CA.get(0, static_cast<unsigned>(Op->getId())));
  EXPECT_EQ(ChainClusters.size(), 1u);
}

TEST(RHOPTest, SplitsIndependentWorkUnderResourcePressure) {
  // 16 independent multiply trees: one cluster's 2 integer units would
  // serialize them, so RHOP should use both clusters.
  auto P = std::make_unique<Program>("wide");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Acc = B.movi(0);
  std::vector<int> Products;
  for (int I = 0; I != 16; ++I) {
    int A = B.movi(I + 1);
    int C = B.movi(I + 2);
    Products.push_back(B.mul(A, C));
  }
  for (int Pr : Products)
    Acc = B.add(Acc, Pr);
  B.ret(Acc);
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok);
  MachineModel MM = MachineModel::makeDefault(2, 1); // Cheap moves.
  ClusterAssignment CA = runRHOP(*P, PP.Prof, MM, nullptr);
  std::set<int> Used;
  for (const auto &Op : F->getEntryBlock().operations())
    Used.insert(CA.get(0, static_cast<unsigned>(Op->getId())));
  EXPECT_EQ(Used.size(), 2u) << "wide parallel work should use both clusters";
}

TEST(PipelineTest, OptimizedProgramStillPartitions) {
  auto P = makeTwoChains();
  optimizeProgram(*P);
  PreparedProgram PP = prepareProgram(*P);
  ASSERT_TRUE(PP.Ok) << PP.Error;
  PipelineOptions Opt;
  Opt.Strategy = StrategyKind::GDP;
  PipelineResult R = runStrategy(PP, Opt);
  EXPECT_GT(R.Cycles, 0u);
}

// --- End-to-end quality against the exhaustive optimum --------------------------

TEST(QualityTest, GDPWithinEnvelopeOfExhaustiveOptimum) {
  // On programs small enough to enumerate, GDP's placement must land close
  // to the best placement's cycle count (and never below the worst).
  for (auto Builder : {makeFig4, makeTwoChains}) {
    auto P = Builder();
    PreparedProgram PP = prepareProgram(*P);
    ASSERT_TRUE(PP.Ok) << PP.Error;
    PipelineOptions Opt;
    Opt.MoveLatency = 5;
    ExhaustiveResult R = exhaustiveSearch(PP, Opt);
    const ExhaustivePoint &GDPPoint = R.Points[R.GDPMask];
    EXPECT_LE(GDPPoint.Cycles, R.WorstCycles);
    // The unconstrained optimum may be heavily imbalanced — the paper's
    // §4.3 notes GDP deliberately rejects those points. Compare against
    // the best placement no more imbalanced than GDP's own.
    uint64_t BestBalanced = R.WorstCycles;
    for (const ExhaustivePoint &Pt : R.Points)
      if (Pt.Imbalance <= GDPPoint.Imbalance + 0.05)
        BestBalanced = std::min(BestBalanced, Pt.Cycles);
    EXPECT_LE(static_cast<double>(GDPPoint.Cycles),
              1.25 * static_cast<double>(BestBalanced))
        << P->getName();
  }
}

TEST(QualityTest, GDPNeverLosesBadlyToNaiveOnSuite) {
  // Sanity floor for the headline result: on every paper-suite benchmark
  // GDP stays within 70% of the Naive strategy (it usually wins; pegwit's
  // inseparable merged class used to be the worst case at ~1.6× until the
  // capacity-aware byte balance stopped force-splitting it). The floor
  // catches placement regressions without over-fitting numbers.
  for (const WorkloadInfo &W : allWorkloads()) {
    if (W.Suite == "extra")
      continue;
    auto P = W.Build();
    PreparedProgram PP = prepareProgram(*P);
    ASSERT_TRUE(PP.Ok) << W.Name << ": " << PP.Error;
    PipelineOptions Opt;
    Opt.MoveLatency = 5;
    Opt.Strategy = StrategyKind::GDP;
    uint64_t GDPCycles = runStrategy(PP, Opt).Cycles;
    Opt.Strategy = StrategyKind::Naive;
    uint64_t NaiveCycles = runStrategy(PP, Opt).Cycles;
    EXPECT_LE(static_cast<double>(GDPCycles),
              1.70 * static_cast<double>(NaiveCycles))
        << W.Name;
  }
}

TEST(QualityTest, GDPBeatsProfileMaxOnAverage) {
  // The paper's core comparative claim, enforced as a regression test.
  double GDPSum = 0, PMSum = 0;
  unsigned Count = 0;
  for (const WorkloadInfo &W : allWorkloads()) {
    if (W.Suite == "extra")
      continue;
    auto P = W.Build();
    PreparedProgram PP = prepareProgram(*P);
    ASSERT_TRUE(PP.Ok);
    PipelineOptions Opt;
    Opt.MoveLatency = 5;
    Opt.Strategy = StrategyKind::Unified;
    double Unified = static_cast<double>(runStrategy(PP, Opt).Cycles);
    Opt.Strategy = StrategyKind::GDP;
    GDPSum += Unified / static_cast<double>(runStrategy(PP, Opt).Cycles);
    Opt.Strategy = StrategyKind::ProfileMax;
    PMSum += Unified / static_cast<double>(runStrategy(PP, Opt).Cycles);
    ++Count;
  }
  EXPECT_GT(GDPSum / Count, PMSum / Count)
      << "GDP lost its average advantage over Profile Max";
  EXPECT_GT(GDPSum / Count, 0.85) << "GDP average fell below 85% of unified";
}
