//===- tests/AnalysisTests.cpp - Analysis unit tests --------------------------===//

#include "analysis/CFG.h"
#include "analysis/DefUse.h"
#include "analysis/LoopInfo.h"
#include "analysis/OpIndex.h"
#include "analysis/PointsTo.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "profile/ProfileData.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace gdp;

namespace {

/// main() { if (1) x = 1 else x = 2; ret x } — a diamond.
std::unique_ptr<Program> makeDiamond() {
  auto P = std::make_unique<Program>("diamond");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *Then = F->makeBlock("then");
  BasicBlock *Else = F->makeBlock("else");
  BasicBlock *Join = F->makeBlock("join");
  B.setInsertPoint(Entry);
  int Cond = B.movi(1);
  int X = B.newReg();
  B.brCond(Cond, Then, Else);
  B.setInsertPoint(Then);
  B.moviTo(X, 1);
  B.br(Join);
  B.setInsertPoint(Else);
  B.moviTo(X, 2);
  B.br(Join);
  B.setInsertPoint(Join);
  B.ret(X);
  return P;
}

} // namespace

// --- CFG ------------------------------------------------------------------

TEST(CFGTest, DiamondStructure) {
  auto P = makeDiamond();
  CFG Cfg(P->getEntry());
  EXPECT_EQ(Cfg.getNumBlocks(), 4u);
  EXPECT_EQ(Cfg.successors(0).size(), 2u);
  EXPECT_EQ(Cfg.predecessors(3).size(), 2u);
  EXPECT_TRUE(Cfg.isReachable(3));
}

TEST(CFGTest, RPOStartsAtEntryAndCoversAll) {
  auto P = makeDiamond();
  CFG Cfg(P->getEntry());
  const auto &RPO = Cfg.reversePostOrder();
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO[0], 0);
  // Join comes after both branches.
  auto Pos = [&](int B) {
    return std::find(RPO.begin(), RPO.end(), B) - RPO.begin();
  };
  EXPECT_GT(Pos(3), Pos(1));
  EXPECT_GT(Pos(3), Pos(2));
}

TEST(CFGTest, UnreachableBlockDetected) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *Dead = F->makeBlock("dead");
  B.setInsertPoint(Entry);
  B.ret();
  B.setInsertPoint(Dead);
  B.ret();
  CFG Cfg(*F);
  EXPECT_TRUE(Cfg.isReachable(0));
  EXPECT_FALSE(Cfg.isReachable(1));
  EXPECT_EQ(Cfg.reversePostOrder().size(), 2u);
}

// --- OpIndex -----------------------------------------------------------------

TEST(OpIndexTest, RoundTripsIds) {
  auto P = makeDiamond();
  const Function &F = P->getEntry();
  OpIndex OI(F);
  for (const auto &BB : F.blocks())
    for (unsigned I = 0; I != BB->size(); ++I) {
      const Operation &Op = BB->getOp(I);
      EXPECT_EQ(OI.getOp(static_cast<unsigned>(Op.getId())), &Op);
      EXPECT_EQ(OI.getBlockOf(static_cast<unsigned>(Op.getId())),
                BB->getId());
      EXPECT_EQ(OI.getPosInBlock(static_cast<unsigned>(Op.getId())),
                static_cast<int>(I));
    }
}

// --- DefUse ------------------------------------------------------------------

TEST(DefUseTest, DiamondUseSeesBothDefs) {
  auto P = makeDiamond();
  const Function &F = P->getEntry();
  DefUse DU(F);
  // The ret in the join block uses X, which has two reaching defs.
  const Operation *Ret = F.getBlock(3).getTerminator();
  ASSERT_NE(Ret, nullptr);
  const auto &Defs = DU.defsForUse(static_cast<unsigned>(Ret->getId()), 0);
  EXPECT_EQ(Defs.size(), 2u);
}

TEST(DefUseTest, StraightLineSingleDef) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int A = B.movi(3);
  int C = B.add(A, A);
  B.ret(C);
  DefUse DU(*F);
  const Operation &Add = F->getEntryBlock().getOp(1);
  for (unsigned S = 0; S != 2; ++S) {
    const auto &Defs = DU.defsForUse(static_cast<unsigned>(Add.getId()), S);
    ASSERT_EQ(Defs.size(), 1u);
    EXPECT_EQ(DU.getDef(Defs[0]).OpId,
              F->getEntryBlock().getOp(0).getId());
  }
}

TEST(DefUseTest, RedefinitionKillsEarlierDef) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int X = B.movi(1); // def 1 (killed)
  B.moviTo(X, 2);    // def 2
  B.ret(X);
  DefUse DU(*F);
  const Operation *Ret = F->getEntryBlock().getTerminator();
  const auto &Defs = DU.defsForUse(static_cast<unsigned>(Ret->getId()), 0);
  ASSERT_EQ(Defs.size(), 1u);
  EXPECT_EQ(DU.getDef(Defs[0]).OpId, F->getEntryBlock().getOp(1).getId());
}

TEST(DefUseTest, ParamPseudoDefs) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("f", 1);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  B.ret(0); // Returns the parameter.
  DefUse DU(*F);
  const Operation *Ret = F->getEntryBlock().getTerminator();
  const auto &Defs = DU.defsForUse(static_cast<unsigned>(Ret->getId()), 0);
  ASSERT_EQ(Defs.size(), 1u);
  EXPECT_TRUE(DU.getDef(Defs[0]).isParam());
  EXPECT_EQ(DU.getDef(Defs[0]).paramIndex(), 0);
  EXPECT_EQ(DU.usesOfParam(0).size(), 1u);
}

TEST(DefUseTest, LoopCarriedValueReachesAroundBackEdge) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  auto L = B.beginCountedLoop(0, 10);
  // Uses of the induction variable in the latch see both the initial def
  // and the in-loop increment.
  B.endCountedLoop(L);
  B.ret();
  DefUse DU(*F);
  // The compare in the head block uses IndVar.
  const Operation &Cmp = F->getBlock(1).getOp(0);
  const auto &Defs = DU.defsForUse(static_cast<unsigned>(Cmp.getId()), 0);
  EXPECT_EQ(Defs.size(), 2u);
}

TEST(DefUseTest, UsesOfDefListsConsumers) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int A = B.movi(5);
  B.add(A, A);
  B.sub(A, B.movi(1));
  B.ret();
  DefUse DU(*F);
  const Operation &Def = F->getEntryBlock().getOp(0);
  // add uses it twice (two operand slots), sub once.
  EXPECT_EQ(DU.usesOfDef(static_cast<unsigned>(Def.getId())).size(), 3u);
}

// --- LoopInfo ---------------------------------------------------------------------

TEST(LoopInfoTest, SingleLoopDetected) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  auto L = B.beginCountedLoop(0, 10);
  B.endCountedLoop(L);
  B.ret();
  CFG Cfg(*F);
  LoopInfo LI(*F, Cfg);
  ASSERT_EQ(LI.getNumLoops(), 1u);
  // Head (1) and body (2) are in the loop; entry (0) and exit (3) are not.
  EXPECT_GE(LI.innermostLoopOf(1), 0);
  EXPECT_GE(LI.innermostLoopOf(2), 0);
  EXPECT_EQ(LI.innermostLoopOf(0), -1);
  EXPECT_EQ(LI.innermostLoopOf(3), -1);
  EXPECT_EQ(LI.getLoop(0).Depth, 1u);
}

TEST(LoopInfoTest, NestedLoopDepths) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  auto Outer = B.beginCountedLoop(0, 10);
  auto Inner = B.beginCountedLoop(0, 10);
  B.endCountedLoop(Inner);
  B.endCountedLoop(Outer);
  B.ret();
  CFG Cfg(*F);
  LoopInfo LI(*F, Cfg);
  ASSERT_EQ(LI.getNumLoops(), 2u);
  unsigned MaxDepth = 0;
  for (unsigned I = 0; I != LI.getNumLoops(); ++I)
    MaxDepth = std::max(MaxDepth, LI.getLoop(I).Depth);
  EXPECT_EQ(MaxDepth, 2u);
  // The inner body's innermost loop is the smaller one.
  int InnerBodyLoop = LI.innermostLoopOf(
      static_cast<unsigned>(Inner.Body->getId()));
  ASSERT_GE(InnerBodyLoop, 0);
  EXPECT_EQ(LI.getLoop(static_cast<unsigned>(InnerBodyLoop)).Depth, 2u);
}

TEST(LoopInfoTest, HoistableLiveIns) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry")); // Block 0.
  auto L = B.beginCountedLoop(0, 10);      // Head 1, body 2, exit 3.
  B.endCountedLoop(L);
  B.ret();
  CFG Cfg(*F);
  LoopInfo LI(*F, Cfg);
  // A value defined in the entry block is invariant in the loop body.
  EXPECT_TRUE(LI.isHoistableLiveIn(0, 2));
  // A value defined inside the loop is not.
  EXPECT_FALSE(LI.isHoistableLiveIn(2, 1));
  // Parameters are invariant everywhere.
  EXPECT_TRUE(LI.isHoistableLiveIn(-1, 2));
  // Nothing is hoistable out of a non-loop block.
  EXPECT_FALSE(LI.isHoistableLiveIn(0, 3));
}

TEST(LoopInfoTest, EntryCountUsesPreheaderFrequency) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  auto L = B.beginCountedLoop(0, 10);
  B.endCountedLoop(L);
  B.ret();
  CFG Cfg(*F);
  LoopInfo LI(*F, Cfg);
  ProfileData Prof(*P);
  Prof.addBlockFreq(0, 0, 3);   // Entry executed 3 times.
  Prof.addBlockFreq(0, 1, 33);  // Head.
  Prof.addBlockFreq(0, 2, 30);  // Body.
  EXPECT_EQ(LI.entryCountOf(2, 0, Prof), 3u);
  // Non-loop block reports its own frequency.
  EXPECT_EQ(LI.entryCountOf(0, 0, Prof), 3u);
}

// --- PointsTo ------------------------------------------------------------------

TEST(PointsToTest, AddrOfYieldsSingleton) {
  auto P = std::make_unique<Program>("t");
  int G = P->addGlobal("g", 8, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(G);
  int V = B.load(Base);
  B.ret(V);
  PointsTo PT(*P);
  const auto &Pts = PT.pointsTo(0, static_cast<unsigned>(Base));
  ASSERT_EQ(Pts.size(), 1u);
  EXPECT_EQ(Pts[0], G);
}

TEST(PointsToTest, Figure4ConditionalPointer) {
  // The paper's Figure 4: foo = cond ? x : y; *foo may be either object.
  auto P = std::make_unique<Program>("t");
  int X = P->addHeapSite("x", 4);
  int Y = P->addGlobal("value1", 8, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int XPtr = B.mallocOp(B.movi(8), X);
  int YPtr = B.addrOf(Y);
  int Cond = B.movi(1);
  int Foo = B.select(Cond, XPtr, YPtr);
  int V = B.load(Foo);
  B.ret(V);
  annotateMemoryAccesses(*P);
  const Operation &Load = F->getEntryBlock().getOp(5);
  ASSERT_EQ(Load.getOpcode(), Opcode::Load);
  EXPECT_EQ(Load.getAccessSet().size(), 2u);
  EXPECT_TRUE(Load.mayAccess(X));
  EXPECT_TRUE(Load.mayAccess(Y));
}

TEST(PointsToTest, PointerArithmeticPropagates) {
  auto P = std::make_unique<Program>("t");
  int G = P->addGlobal("g", 8, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(G);
  int Off = B.movi(3);
  int Addr = B.add(Base, Off);
  int V = B.load(Addr);
  B.ret(V);
  PointsTo PT(*P);
  const auto &Pts = PT.pointsTo(0, static_cast<unsigned>(Addr));
  ASSERT_EQ(Pts.size(), 1u);
  EXPECT_EQ(Pts[0], G);
}

TEST(PointsToTest, PointersThroughMemory) {
  // Store a pointer into a cell, load it back, dereference.
  auto P = std::make_unique<Program>("t");
  int Target = P->addGlobal("target", 4, 4);
  int Cell = P->addGlobal("cell", 1, 8);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int TPtr = B.addrOf(Target);
  int CPtr = B.addrOf(Cell);
  B.store(TPtr, CPtr);
  int Loaded = B.load(CPtr);
  int V = B.load(Loaded);
  B.ret(V);
  annotateMemoryAccesses(*P);
  // The final load may access "target" (via the pointer stored in cell).
  const Operation &Deref = F->getEntryBlock().getOp(4);
  ASSERT_EQ(Deref.getOpcode(), Opcode::Load);
  EXPECT_TRUE(Deref.mayAccess(Target));
  PointsTo PT(*P);
  // The cell's contents include the target.
  const auto &Contents = PT.contents(static_cast<unsigned>(Cell));
  EXPECT_TRUE(std::binary_search(Contents.begin(), Contents.end(), Target));
}

TEST(PointsToTest, InterproceduralParamAndReturn) {
  auto P = std::make_unique<Program>("t");
  int G = P->addGlobal("g", 8, 4);
  // id(p) { ret p }
  Function *Id = P->makeFunction("id", 1);
  {
    IRBuilder B(Id);
    B.setInsertPoint(Id->makeBlock("entry"));
    B.ret(0);
  }
  Function *Main = P->makeFunction("main", 0);
  P->setEntry(Main->getId());
  IRBuilder B(Main);
  B.setInsertPoint(Main->makeBlock("entry"));
  int Base = B.addrOf(G);
  int R = B.call(Id, {Base});
  int V = B.load(R);
  B.ret(V);
  annotateMemoryAccesses(*P);
  const Operation &Load = Main->getEntryBlock().getOp(2);
  ASSERT_EQ(Load.getOpcode(), Opcode::Load);
  EXPECT_TRUE(Load.mayAccess(G));
}

TEST(PointsToTest, AnnotationFlagsUnrootedLoads) {
  auto P = std::make_unique<Program>("t");
  P->addGlobal("g", 8, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Junk = B.movi(12345);
  int V = B.load(Junk); // Address not derived from any object.
  B.ret(V);
  EXPECT_EQ(annotateMemoryAccesses(*P), 1u);
}

TEST(PointsToTest, MallocSitesAreDistinct) {
  auto P = std::make_unique<Program>("t");
  int SiteA = P->addHeapSite("a", 4);
  int SiteB = P->addHeapSite("b", 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int PA = B.mallocOp(B.movi(4), SiteA);
  int PB = B.mallocOp(B.movi(4), SiteB);
  int VA = B.load(PA);
  B.store(VA, PB);
  B.ret();
  annotateMemoryAccesses(*P);
  const Operation &Load = F->getEntryBlock().getOp(4);
  const Operation &Store = F->getEntryBlock().getOp(5);
  ASSERT_EQ(Load.getOpcode(), Opcode::Load);
  ASSERT_EQ(Store.getOpcode(), Opcode::Store);
  EXPECT_EQ(Load.getAccessSet(), std::vector<int>{SiteA});
  EXPECT_EQ(Store.getAccessSet(), std::vector<int>{SiteB});
}

TEST(LoopInfoTest, SelfLoopAndIrreducibleShapesDoNotCrash) {
  // A block that branches to itself is a 1-block natural loop.
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *Spin = F->makeBlock("spin");
  BasicBlock *Exit = F->makeBlock("exit");
  B.setInsertPoint(Entry);
  int C = B.movi(1);
  B.brCond(C, Spin, Exit);
  B.setInsertPoint(Spin);
  int D = B.movi(0);
  B.brCond(D, Spin, Exit);
  B.setInsertPoint(Exit);
  B.ret();
  CFG Cfg(*F);
  LoopInfo LI(*F, Cfg);
  ASSERT_EQ(LI.getNumLoops(), 1u);
  EXPECT_EQ(LI.getLoop(0).Header, Spin->getId());
  EXPECT_GE(LI.innermostLoopOf(static_cast<unsigned>(Spin->getId())), 0);
}
