//===- tests/IRTests.cpp - IR construction/verifier unit tests ---------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <set>

using namespace gdp;

namespace {

/// A minimal valid program: main() { ret 0 }.
std::unique_ptr<Program> makeTrivial() {
  auto P = std::make_unique<Program>("t");
  Function *Main = P->makeFunction("main", 0);
  IRBuilder B(Main);
  B.setInsertPoint(Main->makeBlock("entry"));
  B.ret(B.movi(0));
  return P;
}

} // namespace

// --- Opcode properties -------------------------------------------------------

TEST(OpcodeTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> Names;
  for (int I = 0; I <= static_cast<int>(Opcode::ICMove); ++I) {
    const char *Name = opcodeName(static_cast<Opcode>(I));
    ASSERT_NE(Name, nullptr);
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate name " << Name;
  }
}

TEST(OpcodeTest, MemoryClassification) {
  EXPECT_TRUE(opcodeIsMemoryAccess(Opcode::Load));
  EXPECT_TRUE(opcodeIsMemoryAccess(Opcode::Store));
  EXPECT_FALSE(opcodeIsMemoryAccess(Opcode::Malloc));
  EXPECT_TRUE(opcodeReferencesMemory(Opcode::Malloc));
  EXPECT_TRUE(opcodeReferencesMemory(Opcode::AddrOf));
  EXPECT_FALSE(opcodeReferencesMemory(Opcode::Add));
}

TEST(OpcodeTest, FUKinds) {
  EXPECT_EQ(opcodeFUKind(Opcode::Add), FUKind::Integer);
  EXPECT_EQ(opcodeFUKind(Opcode::FMul), FUKind::Float);
  EXPECT_EQ(opcodeFUKind(Opcode::Load), FUKind::Memory);
  EXPECT_EQ(opcodeFUKind(Opcode::Br), FUKind::Branch);
  EXPECT_EQ(opcodeFUKind(Opcode::ICMove), FUKind::Interconnect);
  EXPECT_EQ(opcodeFUKind(Opcode::AddrOf), FUKind::Integer);
}

TEST(OpcodeTest, Terminators) {
  EXPECT_TRUE(opcodeIsTerminator(Opcode::Br));
  EXPECT_TRUE(opcodeIsTerminator(Opcode::BrCond));
  EXPECT_TRUE(opcodeIsTerminator(Opcode::Ret));
  EXPECT_FALSE(opcodeIsTerminator(Opcode::Call));
}

/// Every opcode's declared arity matches what the builder produces.
class OpcodeArityTest : public ::testing::TestWithParam<int> {};

TEST_P(OpcodeArityTest, DestConsistentWithHasDest) {
  Opcode Op = static_cast<Opcode>(GetParam());
  if (opcodeHasDest(Op)) {
    EXPECT_NE(opcodeNumSrcs(Op), -2); // trivial sanity; hasDest well-defined
  }
  // Terminators never produce values except none.
  if (opcodeIsTerminator(Op)) {
    EXPECT_FALSE(opcodeHasDest(Op));
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeArityTest,
                         ::testing::Range(0,
                                          static_cast<int>(Opcode::ICMove) +
                                              1));

// --- Builder -----------------------------------------------------------------

TEST(IRBuilderTest, BinaryOpShape) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("f", 2);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int R = B.add(0, 1);
  B.ret(R);
  const Operation &Op = F->getEntryBlock().getOp(0);
  EXPECT_EQ(Op.getOpcode(), Opcode::Add);
  EXPECT_EQ(Op.getNumSrcs(), 2u);
  EXPECT_EQ(Op.getSrc(0), 0);
  EXPECT_EQ(Op.getSrc(1), 1);
  EXPECT_EQ(Op.getDest(), R);
}

TEST(IRBuilderTest, FreshRegistersAreDistinct) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("f", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int A = B.movi(1), C = B.movi(2), D = B.add(A, C);
  EXPECT_NE(A, C);
  EXPECT_NE(C, D);
  EXPECT_EQ(F->getNumVRegs(), 3u);
  B.ret(D);
}

TEST(IRBuilderTest, CountedLoopStructure) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  auto L = B.beginCountedLoop(0, 10);
  B.endCountedLoop(L);
  B.ret(B.movi(0));
  // entry, head, body, exit.
  EXPECT_EQ(F->getNumBlocks(), 4u);
  VerifyResult VR = verifyProgram(*P);
  EXPECT_TRUE(VR.ok()) << VR.message();
  // Head branches to body and exit.
  auto Succs = F->getBlock(1).successorIds();
  ASSERT_EQ(Succs.size(), 2u);
}

TEST(IRBuilderTest, NegativeStepLoopVerifies) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  auto L = B.beginCountedLoop(9, -1, -1);
  B.endCountedLoop(L);
  B.ret();
  EXPECT_TRUE(verifyProgram(*P).ok());
}

TEST(IRBuilderTest, CallWithResultAllocatesRegister) {
  auto P = std::make_unique<Program>("t");
  Function *Callee = P->makeFunction("callee", 1);
  {
    IRBuilder B(Callee);
    B.setInsertPoint(Callee->makeBlock("entry"));
    B.ret(0);
  }
  Function *Main = P->makeFunction("main", 0);
  P->setEntry(Main->getId());
  IRBuilder B(Main);
  B.setInsertPoint(Main->makeBlock("entry"));
  int Arg = B.movi(7);
  int R = B.call(Callee, {Arg});
  EXPECT_GE(R, 0);
  B.ret(R);
  EXPECT_TRUE(verifyProgram(*P).ok());
}

TEST(IRBuilderTest, VoidCallReturnsMinusOne) {
  auto P = std::make_unique<Program>("t");
  Function *Callee = P->makeFunction("callee", 0);
  {
    IRBuilder B(Callee);
    B.setInsertPoint(Callee->makeBlock("entry"));
    B.ret();
  }
  Function *Main = P->makeFunction("main", 0);
  P->setEntry(Main->getId());
  IRBuilder B(Main);
  B.setInsertPoint(Main->makeBlock("entry"));
  EXPECT_EQ(B.call(Callee, {}, /*WantResult=*/false), -1);
  B.ret();
  EXPECT_TRUE(verifyProgram(*P).ok());
}

TEST(IRBuilderTest, OperationIdsDenseAndUnique) {
  auto P = makeTrivial();
  const Function &F = P->getEntry();
  std::set<int> Ids;
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations())
      EXPECT_TRUE(Ids.insert(Op->getId()).second);
  EXPECT_EQ(Ids.size(), F.getNumOps());
}

// --- Program / objects --------------------------------------------------------

TEST(ProgramTest, GlobalSizes) {
  Program P("t");
  int Obj = P.addGlobal("arr", 100, 4);
  EXPECT_EQ(P.getObject(Obj).getSizeBytes(), 400u);
  EXPECT_TRUE(P.getObject(Obj).isGlobal());
}

TEST(ProgramTest, HeapSiteSizeFromProfile) {
  Program P("t");
  int Site = P.addHeapSite("buf", 2);
  EXPECT_EQ(P.getObject(Site).getSizeBytes(), 0u);
  P.getObject(Site).setProfiledBytes(512);
  EXPECT_EQ(P.getObject(Site).getSizeBytes(), 512u);
  EXPECT_TRUE(P.getObject(Site).isHeapSite());
}

TEST(ProgramTest, FirstFunctionIsEntryByDefault) {
  Program P("t");
  Function *A = P.makeFunction("a", 0);
  P.makeFunction("b", 0);
  EXPECT_EQ(P.getEntryId(), A->getId());
}

TEST(ProgramTest, FindFunctionByName) {
  Program P("t");
  P.makeFunction("alpha", 0);
  Function *Beta = P.makeFunction("beta", 2);
  EXPECT_EQ(P.findFunction("beta"), Beta);
  EXPECT_EQ(P.findFunction("gamma"), nullptr);
}

// --- Verifier ------------------------------------------------------------------

TEST(VerifierTest, AcceptsTrivialProgram) {
  auto P = makeTrivial();
  EXPECT_TRUE(verifyProgram(*P).ok());
}

TEST(VerifierTest, RejectsUnterminatedBlock) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  B.movi(1); // No terminator.
  VerifyResult VR = verifyProgram(*P);
  EXPECT_FALSE(VR.ok());
  EXPECT_NE(VR.message().find("terminator"), std::string::npos);
}

TEST(VerifierTest, RejectsEmptyFunction) {
  auto P = std::make_unique<Program>("t");
  P->makeFunction("main", 0);
  EXPECT_FALSE(verifyProgram(*P).ok());
}

TEST(VerifierTest, RejectsOutOfRangeRegister) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  B.ret(7); // r7 was never allocated.
  VerifyResult VR = verifyProgram(*P);
  EXPECT_FALSE(VR.ok());
  EXPECT_NE(VR.message().find("out of range"), std::string::npos);
}

TEST(VerifierTest, RejectsBadBranchTarget) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  BasicBlock *Entry = F->makeBlock("entry");
  auto Op = std::make_unique<Operation>(Opcode::Br, F->makeOpId());
  Op->setTargets(5);
  Entry->append(std::move(Op));
  EXPECT_FALSE(verifyProgram(*P).ok());
}

TEST(VerifierTest, RejectsCallArityMismatch) {
  auto P = std::make_unique<Program>("t");
  Function *Callee = P->makeFunction("callee", 2);
  {
    IRBuilder B(Callee);
    B.setInsertPoint(Callee->makeBlock("entry"));
    B.ret(0);
  }
  Function *Main = P->makeFunction("main", 0);
  P->setEntry(Main->getId());
  BasicBlock *Entry = Main->makeBlock("entry");
  auto Call = std::make_unique<Operation>(Opcode::Call, Main->makeOpId());
  Call->setCallee(Callee->getId());
  Call->setDest(Main->makeVReg()); // No args passed: arity mismatch.
  Entry->append(std::move(Call));
  auto Ret = std::make_unique<Operation>(Opcode::Ret, Main->makeOpId());
  Entry->append(std::move(Ret));
  VerifyResult VR = verifyProgram(*P);
  EXPECT_FALSE(VR.ok());
  EXPECT_NE(VR.message().find("argument"), std::string::npos);
}

TEST(VerifierTest, RejectsAddrOfHeapSite) {
  auto P = std::make_unique<Program>("t");
  int Site = P->addHeapSite("buf", 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  B.addrOf(Site);
  B.ret();
  EXPECT_FALSE(verifyProgram(*P).ok());
}

TEST(VerifierTest, RejectsMallocOfGlobal) {
  auto P = std::make_unique<Program>("t");
  int Obj = P->addGlobal("g", 4, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Size = B.movi(8);
  B.mallocOp(Size, Obj);
  B.ret();
  EXPECT_FALSE(verifyProgram(*P).ok());
}

TEST(VerifierTest, RejectsEntryWithParams) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 2);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  B.ret();
  EXPECT_FALSE(verifyProgram(*P).ok());
}

TEST(VerifierTest, RejectsMidBlockTerminator) {
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  BasicBlock *Entry = F->makeBlock("entry");
  Entry->append(std::make_unique<Operation>(Opcode::Ret, F->makeOpId()));
  auto M = std::make_unique<Operation>(Opcode::MovI, F->makeOpId());
  M->setDest(F->makeVReg());
  Entry->append(std::move(M));
  EXPECT_FALSE(verifyProgram(*P).ok());
}

// --- Printer --------------------------------------------------------------------

TEST(PrinterTest, OperationFormats) {
  auto P = std::make_unique<Program>("t");
  P->addGlobal("g", 4, 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  int Base = B.addrOf(0);
  int V = B.load(Base, 2);
  B.store(V, Base, 3);
  B.ret(V);
  std::string S = printFunction(*F);
  EXPECT_NE(S.find("addrof obj0"), std::string::npos);
  EXPECT_NE(S.find("ld [r0+2]"), std::string::npos);
  EXPECT_NE(S.find("st r1, [r0+3]"), std::string::npos);
}

TEST(PrinterTest, ProgramListsObjects) {
  auto P = makeTrivial();
  P->addGlobal("table", 10, 2);
  std::string S = printProgram(*P);
  EXPECT_NE(S.find("table"), std::string::npos);
  EXPECT_NE(S.find("20 bytes"), std::string::npos);
}
