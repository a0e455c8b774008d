//===- tests/TransformTests.cpp - Optimizer pass tests -------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "opt/Transforms.h"
#include "profile/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace gdp;

TEST(FoldTest, FoldsConstantChain) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int A = B.movi(6);
  int C = B.movi(7);
  int M = B.mul(A, C);          // 42
  int S = B.add(M, B.movi(-2)); // 40
  B.ret(S);
  // Chains fold in a single pass: morphing is in place, so the folded
  // mul is already a constant when the add's operands are examined.
  EXPECT_EQ(foldConstants(*F), 2u);
  EXPECT_EQ(foldConstants(*F), 0u);
  ASSERT_TRUE(verifyProgram(P).ok());
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.I, 40);
}

TEST(FoldTest, DoesNotFoldTrappingDivision) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int A = B.movi(1);
  int Z = B.movi(0);
  int D = B.div(A, Z); // Must stay (and trap at run time).
  B.ret(D);
  EXPECT_EQ(foldConstants(*F), 0u);
  EXPECT_EQ(F->getEntryBlock().getOp(2).getOpcode(), Opcode::Div);
}

TEST(FoldTest, DoesNotFoldMultiDefOperand) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *Then = F->makeBlock("then");
  BasicBlock *Else = F->makeBlock("else");
  BasicBlock *Join = F->makeBlock("join");
  B.setInsertPoint(Entry);
  int X = B.newReg();
  int Cond = B.movi(1);
  B.brCond(Cond, Then, Else);
  B.setInsertPoint(Then);
  B.moviTo(X, 10);
  B.br(Join);
  B.setInsertPoint(Else);
  B.moviTo(X, 20);
  B.br(Join);
  B.setInsertPoint(Join);
  int Y = B.add(X, X); // Two reaching defs: not foldable.
  B.ret(Y);
  EXPECT_EQ(foldConstants(*F), 0u);
}

TEST(FoldTest, FoldsSelectAndMov) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int C = B.movi(0);
  int Sel = B.select(C, B.movi(11), B.movi(22));
  int Copy = B.mov(Sel);
  B.ret(Copy);
  // First round folds the select; second folds the mov-of-constant.
  foldConstants(*F);
  foldConstants(*F);
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.I, 22);
  EXPECT_EQ(F->getEntryBlock()
                .getOp(F->getEntryBlock().size() - 2)
                .getOpcode(),
            Opcode::MovI);
}

TEST(FoldTest, WrapsLikeTheInterpreter) {
  // Add, Sub, Mul and Abs wrap in two's complement. A folded overflow must
  // equal what the interpreter computes on the unfolded program.
  struct Case {
    Opcode Op;
    int64_t A, B;
  };
  for (const Case &C : {Case{Opcode::Add, INT64_MAX, 1},
                        Case{Opcode::Mul, INT64_MIN, -1},
                        Case{Opcode::Abs, INT64_MIN, 0}}) {
    SCOPED_TRACE(opcodeName(C.Op));
    Program P("t");
    Function *F = P.makeFunction("main", 0);
    IRBuilder B(F);
    B.setInsertPoint(F->makeBlock("entry"));
    int X = B.movi(C.A);
    B.ret(C.Op == Opcode::Abs ? B.abs(X)
                              : B.emitBinary(C.Op, X, B.movi(C.B)));
    InterpResult Unfolded = Interpreter(P).run();
    ASSERT_TRUE(Unfolded.Ok);
    EXPECT_EQ(Unfolded.ReturnValue.I, INT64_MIN);

    EXPECT_EQ(foldConstants(*F), 1u);
    const BasicBlock &Entry = F->getEntryBlock();
    const Operation &Folded = Entry.getOp(Entry.size() - 2);
    ASSERT_EQ(Folded.getOpcode(), Opcode::MovI);
    EXPECT_EQ(Folded.getImm(), INT64_MIN);
  }
}

TEST(DCETest, RemovesUnusedPureOps) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Used = B.movi(1);
  int Dead1 = B.movi(2);
  B.add(Dead1, Dead1); // Dead chain.
  B.ret(Used);
  unsigned Removed = eliminateDeadCode(*F);
  EXPECT_EQ(Removed, 2u);
  EXPECT_EQ(F->getEntryBlock().size(), 2u); // movi + ret.
  EXPECT_TRUE(verifyProgram(P).ok());
}

TEST(DCETest, KeepsSideEffects) {
  Program P("t");
  int G = P.addGlobal("g", 4, 4);
  int Site = P.addHeapSite("h", 4);
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(G);
  B.store(B.movi(1), Base, 0);       // Side effect: kept.
  B.mallocOp(B.movi(4), Site);       // Allocation: kept (unused result).
  B.ret();
  unsigned Before = F->getNumOps();
  eliminateDeadCode(*F);
  // Only nothing or pure leftovers may go; store and malloc stay.
  unsigned Stores = 0, Mallocs = 0;
  for (const auto &BB : F->blocks())
    for (const auto &Op : BB->operations()) {
      Stores += Op->getOpcode() == Opcode::Store;
      Mallocs += Op->getOpcode() == Opcode::Malloc;
    }
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(Mallocs, 1u);
  EXPECT_LE(F->getNumOps(), Before);
}

TEST(CopyPropTest, PropagatesParameterCopies) {
  Program P("t");
  Function *F = P.makeFunction("f", 1);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Copy = B.mov(0);
  int R = B.add(Copy, Copy);
  B.ret(R);
  unsigned N = propagateCopies(*F);
  EXPECT_EQ(N, 2u);
  const Operation &Add = F->getEntryBlock().getOp(1);
  EXPECT_EQ(Add.getSrc(0), 0);
  EXPECT_EQ(Add.getSrc(1), 0);
  // The copy is now dead.
  EXPECT_EQ(eliminateDeadCode(*F), 1u);
}

TEST(CopyPropTest, LeavesRewrittenRegistersAlone) {
  Program P("t");
  Function *F = P.makeFunction("f", 1);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Copy = B.mov(0);
  B.moviTo(0, 99); // Parameter register is overwritten after the copy.
  int R = B.add(Copy, Copy);
  B.ret(R);
  EXPECT_EQ(propagateCopies(*F), 0u);
}

// --- Semantics preservation over the whole suite -------------------------------

class OptimizeSuiteTest : public ::testing::TestWithParam<const char *> {};

TEST_P(OptimizeSuiteTest, OptimizationPreservesResults) {
  auto Original = buildWorkload(GetParam());
  auto Optimized = buildWorkload(GetParam());
  unsigned Changes = optimizeProgram(*Optimized);
  VerifyResult VR = verifyProgram(*Optimized);
  ASSERT_TRUE(VR.ok()) << VR.message();
  Interpreter I1(*Original), I2(*Optimized);
  InterpResult R1 = I1.run(), R2 = I2.run();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R1.ReturnValue.I, R2.ReturnValue.I);
  // Optimization should never add work. (Builder-authored kernels are
  // already lean, so zero changes is a legitimate outcome.)
  EXPECT_LE(R2.Steps, R1.Steps);
  (void)Changes;
}

TEST(OptimizeTest, CleansRedundantProgram) {
  // A deliberately wasteful function: constant chains, a parameter copy,
  // and dead computation.
  Program P("t");
  Function *F = P.makeFunction("compute", 1);
  {
    IRBuilder B(F);
    B.setInsertPoint(F->makeBlock("entry"));
    int C1 = B.movi(3);
    int C2 = B.movi(4);
    int C3 = B.mul(C1, C2);   // Foldable: 12.
    int Copy = B.mov(0);      // Parameter copy.
    int Dead = B.add(C3, C3); // Dead after the ret below.
    B.add(Dead, Dead);        // Dead chain.
    B.ret(B.add(Copy, C3));
  }
  Function *Main = P.makeFunction("main", 0);
  P.setEntry(Main->getId());
  {
    IRBuilder B(Main);
    B.setInsertPoint(Main->makeBlock("entry"));
    B.ret(B.call(F, {B.movi(8)}));
  }
  unsigned OpsBefore = P.getNumOps();
  unsigned Changes = optimizeProgram(P);
  EXPECT_GT(Changes, 3u);
  EXPECT_LT(P.getNumOps(), OpsBefore);
  ASSERT_TRUE(verifyProgram(P).ok());
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.I, 20);
}

namespace {

std::vector<const char *> optNames() {
  std::vector<const char *> Names;
  for (const WorkloadInfo &W : allWorkloads())
    Names.push_back(W.Name.c_str());
  return Names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OptimizeSuiteTest,
                         ::testing::ValuesIn(optNames()),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });
