//===- tests/InterpTests.cpp - Interpreter/profiler unit tests ----------------===//

#include "ir/IRBuilder.h"
#include "profile/Interpreter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace gdp;

namespace {

/// Runs main() { ret <expr over two constants> } and returns the result.
int64_t evalBinary(Opcode Op, int64_t A, int64_t C) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int RA = B.movi(A);
  int RC = B.movi(C);
  int R = B.emitBinary(Op, RA, RC);
  B.ret(R);
  Interpreter I(P);
  InterpResult Res = I.run();
  EXPECT_TRUE(Res.Ok) << Res.Error;
  EXPECT_TRUE(Res.HasReturn);
  return Res.ReturnValue.I;
}

double evalFBinary(Opcode Op, double A, double C) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int RA = B.movf(A);
  int RC = B.movf(C);
  int R = B.emitBinary(Op, RA, RC);
  B.ret(R);
  Interpreter I(P);
  InterpResult Res = I.run();
  EXPECT_TRUE(Res.Ok) << Res.Error;
  return Res.ReturnValue.F;
}

} // namespace

// --- Arithmetic semantics -----------------------------------------------------

TEST(InterpTest, IntegerArithmetic) {
  EXPECT_EQ(evalBinary(Opcode::Add, 3, 4), 7);
  EXPECT_EQ(evalBinary(Opcode::Sub, 3, 4), -1);
  EXPECT_EQ(evalBinary(Opcode::Mul, -3, 4), -12);
  EXPECT_EQ(evalBinary(Opcode::Div, 7, 2), 3);
  EXPECT_EQ(evalBinary(Opcode::Div, -7, 2), -3); // Trunc toward zero.
  EXPECT_EQ(evalBinary(Opcode::Rem, 7, 3), 1);
  EXPECT_EQ(evalBinary(Opcode::Rem, -7, 3), -1);
}

TEST(InterpTest, BitwiseAndShifts) {
  EXPECT_EQ(evalBinary(Opcode::And, 0b1100, 0b1010), 0b1000);
  EXPECT_EQ(evalBinary(Opcode::Or, 0b1100, 0b1010), 0b1110);
  EXPECT_EQ(evalBinary(Opcode::Xor, 0b1100, 0b1010), 0b0110);
  EXPECT_EQ(evalBinary(Opcode::Shl, 1, 4), 16);
  EXPECT_EQ(evalBinary(Opcode::AShr, -16, 2), -4);
  EXPECT_EQ(evalBinary(Opcode::LShr, -1, 60), 15);
}

TEST(InterpTest, Comparisons) {
  EXPECT_EQ(evalBinary(Opcode::CmpEQ, 5, 5), 1);
  EXPECT_EQ(evalBinary(Opcode::CmpNE, 5, 5), 0);
  EXPECT_EQ(evalBinary(Opcode::CmpLT, 4, 5), 1);
  EXPECT_EQ(evalBinary(Opcode::CmpLE, 5, 5), 1);
  EXPECT_EQ(evalBinary(Opcode::CmpGT, 5, 4), 1);
  EXPECT_EQ(evalBinary(Opcode::CmpGE, 4, 5), 0);
}

TEST(InterpTest, MinMax) {
  EXPECT_EQ(evalBinary(Opcode::Min, -2, 3), -2);
  EXPECT_EQ(evalBinary(Opcode::Max, -2, 3), 3);
}

TEST(InterpTest, FloatArithmetic) {
  EXPECT_DOUBLE_EQ(evalFBinary(Opcode::FAdd, 1.5, 2.25), 3.75);
  EXPECT_DOUBLE_EQ(evalFBinary(Opcode::FSub, 1.5, 2.25), -0.75);
  EXPECT_DOUBLE_EQ(evalFBinary(Opcode::FMul, 1.5, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(evalFBinary(Opcode::FDiv, 3.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(evalFBinary(Opcode::FMin, 1.0, -2.0), -2.0);
  EXPECT_DOUBLE_EQ(evalFBinary(Opcode::FMax, 1.0, -2.0), 1.0);
}

TEST(InterpTest, Conversions) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int FV = B.movf(3.7);
  int IV = B.ftoi(FV);      // Truncates to 3.
  int Back = B.itof(IV);    // 3.0
  int Sum = B.fadd(Back, B.movf(0.5));
  B.ret(B.ftoi(B.fmul(Sum, B.movf(2.0)))); // (3.5*2)=7
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.I, 7);
}

TEST(InterpTest, FloatToIntLaneIsDefinedOutsideTheRange) {
  // A float result also sets the integer lane, and ftoi converts. For NaN,
  // an infinity or a magnitude of 2^63 or more, the integer lane is
  // INT64_MIN (a plain conversion would be undefined behaviour).
  auto Eval = [](auto Emit) {
    Program P("t");
    Function *F = P.makeFunction("main", 0);
    IRBuilder B(F);
    B.setInsertPoint(F->makeBlock("entry"));
    B.ret(Emit(B));
    Interpreter I(P);
    InterpResult R = I.run();
    EXPECT_TRUE(R.Ok) << R.Error;
    return R.ReturnValue;
  };
  const double MinAsDouble = static_cast<double>(INT64_MIN);
  RtValue Inf = Eval([](IRBuilder &B) {
    return B.fdiv(B.movf(1.0), B.movf(0.0));
  });
  EXPECT_EQ(Inf.F, std::numeric_limits<double>::infinity());
  EXPECT_EQ(Inf.I, INT64_MIN);
  RtValue NaN = Eval([](IRBuilder &B) {
    return B.fdiv(B.movf(0.0), B.movf(0.0));
  });
  EXPECT_TRUE(std::isnan(NaN.F));
  EXPECT_EQ(NaN.I, INT64_MIN);
  for (double V : {1e300, -1e300, 0x1p63}) {
    RtValue Big = Eval([V](IRBuilder &B) { return B.ftoi(B.movf(V)); });
    EXPECT_EQ(Big.I, INT64_MIN) << V;
    EXPECT_EQ(Big.F, MinAsDouble) << V;
  }
  // In range, both conversions truncate toward zero.
  RtValue Low = Eval([](IRBuilder &B) { return B.ftoi(B.movf(-0x1p63)); });
  EXPECT_EQ(Low.I, INT64_MIN);
  RtValue Neg = Eval([](IRBuilder &B) { return B.ftoi(B.movf(-3.7)); });
  EXPECT_EQ(Neg.I, -3);
  EXPECT_EQ(Neg.F, -3.0);
  RtValue Lane = Eval([](IRBuilder &B) { return B.movf(-3.7); });
  EXPECT_EQ(Lane.I, -3);
}

TEST(InterpTest, SelectAndAbs) {
  EXPECT_EQ(evalBinary(Opcode::Min, 0, 0), 0);
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int C = B.movi(0);
  int S = B.select(C, B.movi(10), B.movi(20));
  B.ret(B.add(S, B.abs(B.movi(-5))));
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.I, 25);
}

// --- Control flow and calls -----------------------------------------------------

TEST(InterpTest, LoopSum) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Sum = B.movi(0);
  auto L = B.beginCountedLoop(1, 101);
  B.emitBinaryTo(Sum, Opcode::Add, Sum, L.IndVar);
  B.endCountedLoop(L);
  B.ret(Sum);
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.I, 5050);
}

TEST(InterpTest, NestedLoops) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Count = B.movi(0);
  auto LO = B.beginCountedLoop(0, 7);
  auto LI = B.beginCountedLoop(0, 11);
  B.emitBinaryTo(Count, Opcode::Add, Count, B.movi(1));
  B.endCountedLoop(LI);
  B.endCountedLoop(LO);
  B.ret(Count);
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.I, 77);
}

TEST(InterpTest, CallPassesArgsAndReturns) {
  Program P("t");
  Function *AddFn = P.makeFunction("adder", 2);
  {
    IRBuilder B(AddFn);
    B.setInsertPoint(AddFn->makeBlock("entry"));
    B.ret(B.add(0, 1));
  }
  Function *Main = P.makeFunction("main", 0);
  P.setEntry(Main->getId());
  IRBuilder B(Main);
  B.setInsertPoint(Main->makeBlock("entry"));
  int R = B.call(AddFn, {B.movi(30), B.movi(12)});
  B.ret(R);
  Interpreter I(P);
  InterpResult Res = I.run();
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.ReturnValue.I, 42);
}

TEST(InterpTest, RecursionFactorial) {
  Program P("t");
  Function *Fact = P.makeFunction("fact", 1);
  {
    IRBuilder B(Fact);
    BasicBlock *Entry = Fact->makeBlock("entry");
    BasicBlock *Base = Fact->makeBlock("base");
    BasicBlock *Rec = Fact->makeBlock("rec");
    B.setInsertPoint(Entry);
    int IsBase = B.cmpLE(0, B.movi(1));
    B.brCond(IsBase, Base, Rec);
    B.setInsertPoint(Base);
    B.ret(B.movi(1));
    B.setInsertPoint(Rec);
    int NMinus1 = B.sub(0, B.movi(1));
    int Sub = B.call(Fact, {NMinus1});
    B.ret(B.mul(0, Sub));
  }
  Function *Main = P.makeFunction("main", 0);
  P.setEntry(Main->getId());
  IRBuilder B(Main);
  B.setInsertPoint(Main->makeBlock("entry"));
  B.ret(B.call(Fact, {B.movi(6)}));
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.I, 720);
}

// --- Memory -----------------------------------------------------------------------

TEST(InterpTest, GlobalLoadStoreRoundTrip) {
  Program P("t");
  int G = P.addGlobal("g", 8, 4);
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(G);
  B.store(B.movi(99), Base, 5);
  B.ret(B.load(Base, 5));
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.I, 99);
  EXPECT_EQ(I.readGlobalInt(static_cast<unsigned>(G), 5), 99);
}

TEST(InterpTest, GlobalInitializers) {
  Program P("t");
  int G = P.addGlobal("g", 4, 4);
  P.getObject(G).setInit({10, 20, 30}); // 4th defaults to 0.
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(G);
  int S = B.add(B.load(Base, 0), B.load(Base, 2));
  B.ret(B.add(S, B.load(Base, 3)));
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue.I, 40);
}

TEST(InterpTest, MallocAllocatesAndProfiles) {
  Program P("t");
  int Site = P.addHeapSite("buf", 4);
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Ptr = B.mallocOp(B.movi(16), Site);
  B.store(B.movi(7), Ptr, 15);
  B.ret(B.load(Ptr, 15));
  Interpreter I(P);
  InterpResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.I, 7);
  EXPECT_EQ(I.getProfile().getHeapBytes(Site), 64u); // 16 elems × 4 B.
  EXPECT_EQ(I.getProfile().getHeapAllocs(Site), 1u);
  EXPECT_EQ(I.getNumHeapRegions(), 1u);
}

TEST(InterpTest, OutOfBoundsIsError) {
  Program P("t");
  int G = P.addGlobal("g", 4, 4);
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(G);
  B.ret(B.load(Base, 4)); // One past the end.
  Interpreter I(P);
  InterpResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out-of-bounds"), std::string::npos);
}

TEST(InterpTest, DivisionByZeroIsError) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  B.ret(B.div(B.movi(1), B.movi(0)));
  Interpreter I(P);
  InterpResult R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division"), std::string::npos);
}

TEST(InterpTest, StepLimitHit) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("spin");
  B.setInsertPoint(Entry);
  B.br(Entry); // Infinite loop.
  Interpreter I(P);
  InterpResult R = I.run(/*MaxSteps=*/1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
  EXPECT_GT(R.Steps, 1000u);
}

// --- Profiling -----------------------------------------------------------------

TEST(InterpTest, BlockFrequenciesMatchTripCounts) {
  Program P("t");
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  auto L = B.beginCountedLoop(0, 13);
  B.endCountedLoop(L);
  B.ret();
  Interpreter I(P);
  ASSERT_TRUE(I.run().Ok);
  const ProfileData &Prof = I.getProfile();
  EXPECT_EQ(Prof.getBlockFreq(0, 0), 1u);  // Entry.
  EXPECT_EQ(Prof.getBlockFreq(0, 1), 14u); // Head: 13 takes + 1 exit test.
  EXPECT_EQ(Prof.getBlockFreq(0, 2), 13u); // Body.
  EXPECT_EQ(Prof.getBlockFreq(0, 3), 1u);  // Exit.
}

TEST(InterpTest, AccessCountsPerObject) {
  Program P("t");
  int A = P.addGlobal("a", 4, 4);
  int Bo = P.addGlobal("b", 4, 4);
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int ABase = B.addrOf(A);
  int BBase = B.addrOf(Bo);
  auto L = B.beginCountedLoop(0, 4);
  int V = B.load(B.add(ABase, L.IndVar)); // 4 accesses to a.
  B.store(V, B.add(BBase, L.IndVar));     // 4 accesses to b.
  B.endCountedLoop(L);
  B.ret();
  Interpreter I(P);
  ASSERT_TRUE(I.run().Ok);
  const ProfileData &Prof = I.getProfile();
  EXPECT_EQ(Prof.getObjectAccessTotal(A), 4u);
  EXPECT_EQ(Prof.getObjectAccessTotal(Bo), 4u);
}

TEST(InterpTest, DeterministicAcrossRuns) {
  Program P("t");
  int G = P.addGlobal("g", 16, 4);
  Function *F = P.makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(G);
  int H = B.movi(1);
  auto L = B.beginCountedLoop(0, 16);
  B.emitBinaryTo(H, Opcode::Mul, H, B.movi(31));
  B.emitBinaryTo(H, Opcode::Add, H, L.IndVar);
  B.store(H, B.add(Base, L.IndVar));
  B.endCountedLoop(L);
  B.ret(H);
  Interpreter I1(P), I2(P);
  InterpResult R1 = I1.run(), R2 = I2.run();
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_EQ(R1.ReturnValue.I, R2.ReturnValue.I);
  EXPECT_EQ(R1.Steps, R2.Steps);
}
