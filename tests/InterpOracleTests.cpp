//===- tests/InterpOracleTests.cpp - Decoded interpreter vs reference -----===//
//
// profile/Interpreter lowers each program into a flat decoded form and
// builds the simulator's TraceSummary while it runs;
// tests/ReferenceInterpreter walks the IR one operation at a time and
// records the raw trace, which summarizeTrace reduces afterwards. The
// decoded interpreter, run with and without a summary sink, must agree
// with the reference on every registered workload, on edge operand
// values, on every runtime error it reports, under step limits of 1, 2
// and 1,000, and on the generated corpus (`GDP_GEN_SEEDS` widens it), in:
//
//  * the InterpResult, with both return lanes compared bitwise;
//  * every block frequency, access list, heap byte count and heap
//    allocation count;
//  * every global's final cells and the heap region count;
//  * the interp.* counters;
//  * for runs that succeed, the summary, field by field.
//
// A block that recursion re-enters while an outer execution of it is
// suspended at a call is where the two legitimately differ: the raw
// trace's pairing misattributes the outer execution's later accesses, the
// summary built as executions finish does not. That case is pinned on
// its own.
//
//===----------------------------------------------------------------------===//

#include "GenTestUtil.h"
#include "ReferenceInterpreter.h"

#include "gen/Generator.h"
#include "ir/IRBuilder.h"
#include "ir/Program.h"
#include "profile/Interpreter.h"
#include "profile/TraceSummary.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

using namespace gdp;

namespace {

std::string resultDiff(const InterpResult &Got, const InterpResult &Want) {
  if (Got.Ok != Want.Ok || Got.Error != Want.Error)
    return "status: '" + Got.Error + "', reference '" + Want.Error + "'";
  if (Got.Steps != Want.Steps)
    return formatStr("steps %llu, reference %llu",
                     static_cast<unsigned long long>(Got.Steps),
                     static_cast<unsigned long long>(Want.Steps));
  if (Got.HasReturn != Want.HasReturn ||
      Got.ReturnValue.I != Want.ReturnValue.I ||
      std::memcmp(&Got.ReturnValue.F, &Want.ReturnValue.F, sizeof(double)))
    return "return value";
  return "";
}

std::string profileDiff(const Program &P, const ProfileData &Got,
                        const ProfileData &Want) {
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    for (unsigned B = 0; B != Fn.getNumBlocks(); ++B)
      if (Got.getBlockFreq(F, B) != Want.getBlockFreq(F, B))
        return formatStr("f%u/bb%u frequency", F, B);
    for (unsigned Op = 0; Op != Fn.getNumOpIds(); ++Op)
      if (Got.getAccessMap(F, Op) != Want.getAccessMap(F, Op))
        return formatStr("f%u op%u accesses", F, Op);
  }
  for (unsigned O = 0; O != P.getNumObjects(); ++O)
    if (Got.getHeapBytes(static_cast<int>(O)) !=
            Want.getHeapBytes(static_cast<int>(O)) ||
        Got.getHeapAllocs(static_cast<int>(O)) !=
            Want.getHeapAllocs(static_cast<int>(O)))
      return formatStr("heap site %u", O);
  return "";
}

std::string summaryDiff(const TraceSummary &Got, const TraceSummary &Want) {
  if (Got.Blocks.size() != Want.Blocks.size())
    return "function count";
  for (size_t F = 0; F != Got.Blocks.size(); ++F) {
    if (Got.Blocks[F].size() != Want.Blocks[F].size())
      return formatStr("f%zu block count", F);
    for (size_t B = 0; B != Got.Blocks[F].size(); ++B) {
      const TraceSummary::Block &G = Got.Blocks[F][B], &W = Want.Blocks[F][B];
      if (G.NumMemOps != W.NumMemOps || G.Objects != W.Objects ||
          G.Variants.size() != W.Variants.size())
        return formatStr("f%zu/bb%zu variants", F, B);
      for (size_t V = 0; V != G.Variants.size(); ++V)
        if (G.Variants[V].Pred != W.Variants[V].Pred ||
            G.Variants[V].Count != W.Variants[V].Count)
          return formatStr("f%zu/bb%zu variant %zu", F, B, V);
    }
  }
  return "";
}

/// The first difference between the decoded interpreter (with a summary
/// sink when \p Summarize) and the reference on \p P under \p MaxSteps,
/// or "".
std::string runDiff(const Program &P, uint64_t MaxSteps, bool Summarize) {
  const char *Counters[] = {"interp.runs", "interp.steps", "interp.mem_ops",
                            "interp.heap_allocs", "interp.calls"};
  Interpreter Got(P);
  TraceSummary Summary;
  if (Summarize)
    Got.setSummary(&Summary);
  telemetry::TelemetrySession GotSession;
  InterpResult GotR;
  {
    telemetry::ScopedSession Scope(GotSession);
    GotR = Got.run(MaxSteps);
  }
  ReferenceInterpreter Want(P);
  ExecTrace Trace;
  Want.setTrace(&Trace);
  telemetry::TelemetrySession WantSession;
  InterpResult WantR;
  {
    telemetry::ScopedSession Scope(WantSession);
    WantR = Want.run(MaxSteps);
  }

  std::string D = resultDiff(GotR, WantR);
  if (D.empty())
    D = profileDiff(P, Got.getProfile(), Want.getProfile());
  for (unsigned O = 0; D.empty() && O != P.getNumObjects(); ++O) {
    const DataObject &Obj = P.getObject(O);
    for (uint64_t I = 0; Obj.isGlobal() && I != Obj.getNumElements(); ++I)
      if (Got.readGlobalInt(O, I) != Want.readGlobalInt(O, I)) {
        D = formatStr("global %s[%llu]", Obj.getName().c_str(),
                      static_cast<unsigned long long>(I));
        break;
      }
  }
  if (D.empty() && Got.getNumHeapRegions() != Want.getNumHeapRegions())
    D = "heap region count";
  for (const char *C : Counters)
    if (D.empty() && GotSession.stats().getCounter(C) !=
                         WantSession.stats().getCounter(C))
      D = std::string("counter ") + C;
  if (D.empty() && Summarize && WantR.Ok) {
    std::string TraceError;
    TraceSummary WantSummary = summarizeTrace(P, Trace, &TraceError);
    D = TraceError.empty() ? summaryDiff(Summary, WantSummary)
                           : "reference trace: " + TraceError;
  }
  return D.empty() ? "" : (Summarize ? "summarized: " : "plain: ") + D;
}

/// runDiff with and without a summary sink.
std::string interpDiff(const Program &P, uint64_t MaxSteps = 200000000ULL) {
  std::string D = runDiff(P, MaxSteps, /*Summarize=*/false);
  return D.empty() ? runDiff(P, MaxSteps, /*Summarize=*/true) : D;
}

TEST(InterpOracle, WorkloadsMatchReference) {
  for (const WorkloadInfo &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    std::unique_ptr<Program> P = W.Build();
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(interpDiff(*P), "");
  }
}

TEST(InterpOracle, EdgeValuesMatchReference) {
  // Operand values the corpus rarely reaches, each returned from main so
  // both lanes of the result are compared bitwise: signed zeros, NaN and
  // infinities through the float ops, and the wrapping and shift-count
  // corners of the integer ops.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  using Fn = std::function<int(IRBuilder &)>;
  const std::pair<const char *, Fn> Cases[] = {
      {"fabs -0.0", [](IRBuilder &B) { return B.fabs(B.movf(-0.0)); }},
      {"fneg 0.0", [](IRBuilder &B) { return B.fneg(B.movf(0.0)); }},
      {"fmin NaN",
       [&](IRBuilder &B) { return B.fmin(B.movf(NaN), B.movf(1)); }},
      {"fmax NaN",
       [&](IRBuilder &B) { return B.fmax(B.movf(1), B.movf(NaN)); }},
      {"fmin signed zeros",
       [](IRBuilder &B) { return B.fmin(B.movf(0.0), B.movf(-0.0)); }},
      {"fcmplt NaN",
       [&](IRBuilder &B) { return B.fcmpLT(B.movf(NaN), B.movf(1)); }},
      {"fdiv -1/0",
       [](IRBuilder &B) { return B.fdiv(B.movf(-1), B.movf(0)); }},
      {"ftoi -0.5", [](IRBuilder &B) { return B.ftoi(B.movf(-0.5)); }},
      {"itof INT64_MIN",
       [](IRBuilder &B) { return B.itof(B.movi(INT64_MIN)); }},
      {"abs INT64_MIN",
       [](IRBuilder &B) { return B.abs(B.movi(INT64_MIN)); }},
      {"mul wraps",
       [](IRBuilder &B) { return B.mul(B.movi(INT64_MAX), B.movi(3)); }},
      {"shl by 65", [](IRBuilder &B) { return B.shl(B.movi(3), B.movi(65)); }},
      {"ashr negative",
       [](IRBuilder &B) { return B.ashr(B.movi(-9), B.movi(-63)); }},
      {"lshr negative",
       [](IRBuilder &B) { return B.lshr(B.movi(-9), B.movi(1)); }},
      {"rem negative",
       [](IRBuilder &B) { return B.rem(B.movi(-9), B.movi(4)); }},
  };
  for (const auto &[Name, Emit] : Cases) {
    SCOPED_TRACE(Name);
    Program P("edge");
    Function *F = P.makeFunction("main", 0);
    IRBuilder B(F);
    B.setInsertPoint(F->makeBlock("entry"));
    B.ret(Emit(B));
    EXPECT_TRUE(Interpreter(P).run().Ok);
    EXPECT_EQ(interpDiff(P), "");
  }
}

/// main() { <Body>; ret 0 } over one 4-element global "g" and a heap site
/// "site" (element size 4).
std::unique_ptr<Program>
errorProgram(const std::function<void(IRBuilder &, int G, int Site)> &Body) {
  auto P = std::make_unique<Program>("errors");
  int G = P->addGlobal("g", 4, 4);
  int Site = P->addHeapSite("site", 4);
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  B.setInsertPoint(F->makeBlock("entry"));
  Body(B, G, Site);
  B.ret(B.movi(0));
  return P;
}

TEST(InterpOracle, ErrorsMatchReference) {
  using Fn = std::function<void(IRBuilder &, int, int)>;
  const std::pair<const char *, Fn> Cases[] = {
      {"bad address",
       [](IRBuilder &B, int, int) { B.load(B.movi(int64_t(5) << 32)); }},
      {"bad address below region 0",
       [](IRBuilder &B, int G, int) { B.load(B.addrOf(G), -1); }},
      {"load out of bounds",
       [](IRBuilder &B, int G, int) { B.load(B.addrOf(G), 4); }},
      {"store out of bounds",
       [](IRBuilder &B, int G, int) {
         B.store(B.movi(1), B.addrOf(G), 7);
       }},
      {"heap site has no cells",
       [](IRBuilder &B, int, int Site) { B.load(B.addrOf(Site)); }},
      {"heap region out of bounds",
       [](IRBuilder &B, int, int Site) {
         B.load(B.mallocOp(B.movi(3), Site), 3);
       }},
      {"division by zero",
       [](IRBuilder &B, int, int) { B.div(B.movi(1), B.movi(0)); }},
      {"division overflow",
       [](IRBuilder &B, int, int) { B.div(B.movi(INT64_MIN), B.movi(-1)); }},
      {"remainder by zero",
       [](IRBuilder &B, int, int) { B.rem(B.movi(1), B.movi(0)); }},
      {"remainder overflow",
       [](IRBuilder &B, int, int) { B.rem(B.movi(INT64_MIN), B.movi(-1)); }},
      {"negative allocation",
       [](IRBuilder &B, int, int Site) { B.mallocOp(B.movi(-1), Site); }},
      {"oversized allocation",
       [](IRBuilder &B, int, int Site) {
         B.mallocOp(B.movi((int64_t(1) << 28) + 1), Site);
       }},
  };
  for (const auto &[Name, Body] : Cases) {
    SCOPED_TRACE(Name);
    std::unique_ptr<Program> P = errorProgram(Body);
    EXPECT_FALSE(Interpreter(*P).run().Ok);
    EXPECT_EQ(interpDiff(*P), "");
  }

  {
    SCOPED_TRACE("void return bound to a call result");
    Program P("voidret");
    Function *Callee = P.makeFunction("callee", 0);
    IRBuilder CB(Callee);
    CB.setInsertPoint(Callee->makeBlock("entry"));
    CB.ret();
    Function *Main = P.makeFunction("main", 0);
    P.setEntry(Main->getId());
    IRBuilder B(Main);
    B.setInsertPoint(Main->makeBlock("entry"));
    B.ret(B.call(Callee, {}));
    EXPECT_FALSE(Interpreter(P).run().Ok);
    EXPECT_EQ(interpDiff(P), "");
  }
  {
    SCOPED_TRACE("no entry function");
    Program P("empty");
    P.addGlobal("g", 2, 4);
    EXPECT_FALSE(Interpreter(P).run().Ok);
    EXPECT_EQ(interpDiff(P), "");
  }

  // Step limits stop every workload at the same operation, with the same
  // counts so far.
  for (const WorkloadInfo &W : allWorkloads())
    for (uint64_t Limit : {1ull, 2ull, 1000ull}) {
      SCOPED_TRACE(formatStr("%s, %llu steps", W.Name.c_str(),
                             static_cast<unsigned long long>(Limit)));
      std::unique_ptr<Program> P = W.Build();
      ASSERT_NE(P, nullptr);
      EXPECT_EQ(interpDiff(*P, Limit), "");
    }
}

TEST(GenInterpOracle, GeneratedProgramsMatchReference) {
  // Small differential and property programs for every seed, and a
  // 2,500-op scale program for every tenth.
  unsigned N = gentest::seedCount(20);
  for (uint64_t Seed = 1; Seed <= N; ++Seed) {
    std::vector<gen::GenOptions> Corpus = {
        gen::GenOptions::smallDifferential(Seed),
        gen::GenOptions::property(Seed)};
    if (Seed % 10 == 0)
      Corpus.push_back(gen::GenOptions::scale(Seed, 2500));
    for (const gen::GenOptions &GO : Corpus) {
      SCOPED_TRACE(gen::reproCommand(GO));
      std::unique_ptr<Program> P = gen::generateProgram(GO);
      ASSERT_NE(P, nullptr);
      std::string Why = interpDiff(*P);
      if (!Why.empty())
        gentest::dumpFailingSeed(GO, P.get(), Why);
      EXPECT_EQ(Why, "");
    }
  }
}

/// rec(n) for n > 0 reaches block `body` through `top` when n == 2 and
/// through `deeper` otherwise; `body` calls rec(n - 1) and then loads
/// from `a` when n == 2, from `b` otherwise. main calls rec(2), so
/// rec(1)'s execution of `body` starts after rec(2)'s and finishes before
/// it.
std::unique_ptr<Program> makeReentrantProgram(int &A, int &Bo) {
  auto P = std::make_unique<Program>("reentrant");
  A = P->addGlobal("a", 1, 4);
  Bo = P->addGlobal("b", 1, 4);
  Function *Rec = P->makeFunction("rec", 1);
  Function *Main = P->makeFunction("main", 0);
  P->setEntry(Main->getId());
  {
    IRBuilder B(Main);
    B.setInsertPoint(Main->makeBlock("entry"));
    B.call(Rec, {B.movi(2)}, /*WantResult=*/false);
    B.ret(B.movi(0));
  }
  IRBuilder B(Rec);
  BasicBlock *Entry = Rec->makeBlock("entry");
  BasicBlock *Split = Rec->makeBlock("split");
  BasicBlock *Top = Rec->makeBlock("top");
  BasicBlock *Deeper = Rec->makeBlock("deeper");
  BasicBlock *Body = Rec->makeBlock("body");
  BasicBlock *Exit = Rec->makeBlock("exit");
  B.setInsertPoint(Entry);
  B.brCond(B.cmpLE(0, B.movi(0)), Exit, Split);
  B.setInsertPoint(Split);
  B.brCond(B.cmpEQ(0, B.movi(2)), Top, Deeper);
  B.setInsertPoint(Top);
  B.br(Body);
  B.setInsertPoint(Deeper);
  B.br(Body);
  B.setInsertPoint(Body);
  B.call(Rec, {B.sub(0, B.movi(1))}, /*WantResult=*/false);
  B.load(B.select(B.cmpEQ(0, B.movi(2)), B.addrOf(A), B.addrOf(Bo)));
  B.br(Exit);
  B.setInsertPoint(Exit);
  B.ret();
  return P;
}

TEST(InterpOracle, ReentrantBlockKeepsEachExecutionsAccesses) {
  int A = 0, Bo = 0;
  std::unique_ptr<Program> P = makeReentrantProgram(A, Bo);
  const unsigned RecId = 0, TopId = 2, DeeperId = 3, BodyId = 4;

  Interpreter Interp(*P);
  TraceSummary Summary;
  Interp.setSummary(&Summary);
  ASSERT_TRUE(Interp.run().Ok);
  // Each execution of `body` is counted when it finishes, with the object
  // its own load touched: rec(1)'s (from `deeper`, reading b) first, then
  // rec(2)'s (from `top`, reading a).
  const TraceSummary::Block &Got = Summary.Blocks[RecId][BodyId];
  ASSERT_EQ(Got.NumMemOps, 1u);
  ASSERT_EQ(Got.Variants.size(), 2u);
  EXPECT_EQ(Got.Variants[0].Pred, static_cast<int32_t>(DeeperId));
  EXPECT_EQ(Got.Variants[1].Pred, static_cast<int32_t>(TopId));
  EXPECT_EQ(Got.Objects, (std::vector<int32_t>{Bo, A}));

  // The raw trace pairs the k-th execution to start with the k-th access
  // of the load: rec(2)'s execution, which started first, gets rec(1)'s
  // object.
  ReferenceInterpreter Ref(*P);
  ExecTrace Trace;
  Ref.setTrace(&Trace);
  ASSERT_TRUE(Ref.run().Ok);
  const TraceSummary::Block Paired =
      summarizeTrace(*P, Trace).Blocks[RecId][BodyId];
  ASSERT_EQ(Paired.Variants.size(), 2u);
  EXPECT_EQ(Paired.Variants[0].Pred, static_cast<int32_t>(TopId));
  EXPECT_EQ(Paired.Objects, (std::vector<int32_t>{Bo, A}));
  EXPECT_NE(summaryDiff(Summary, summarizeTrace(*P, Trace)), "");

  // Everything but the pairing agrees.
  EXPECT_EQ(runDiff(*P, 200000000ULL, /*Summarize=*/false), "");
}

} // namespace
