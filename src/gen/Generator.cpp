//===- gen/Generator.cpp - Seeded IR program generator ---------------------===//
//
// Valid-by-construction program synthesis. The generator never emits a
// construct that could fault at runtime or defeat the analyses:
//
//   - Object element counts are rounded up to powers of two and every
//     access index is masked with `and idx, elems-1` (optionally into the
//     lower half when a constant element offset is added), so loads and
//     stores are in-bounds by construction.
//   - Every value placed in the reusable value pool is masked to 32 bits,
//     multiplication/shift operands are pre-masked to 15 bits, and the
//     per-function accumulator is masked before it escapes (return or
//     store), so no interpreted arithmetic can overflow int64 — the
//     generated corpus is clean under UBSan.
//   - Loops are counted with power-of-two trip counts, the product of
//     enclosing trips is capped, and the call graph is a DAG (function i
//     only calls lower-numbered helpers), so every program terminates and
//     the generator can bound the dynamic operation count it creates
//     (GenOptions::DynOpLimit).
//   - Div/Rem are not emitted: the interpreter (correctly) faults on a
//     zero divisor and proving a generated divisor nonzero would cost
//     more ops than the opcode coverage is worth; FuzzTests owns those
//     error paths.
//
// Determinism: all randomness flows through support/Random.h in a single
// fixed draw order; no containers with nondeterministic iteration are
// consulted. Same GenOptions => byte-identical printProgram text.
//
//===----------------------------------------------------------------------===//

#include "gen/Generator.h"

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Program.h"
#include "ir/Verifier.h"
#include "support/Random.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace gdp;
using namespace gdp::gen;

namespace {

/// Largest K with 2^K <= V (V must be nonzero).
unsigned floorLog2(uint64_t V) {
  unsigned K = 0;
  while (V >>= 1)
    ++K;
  return K;
}

/// Smallest power of two >= V.
uint64_t ceilPow2(uint64_t V) {
  uint64_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
}

/// Pool values are masked to 32 bits; mul/shl operands to 15 bits
/// (comment at the top of the file explains the overflow budget).
constexpr int64_t PoolMask = 0xffffffffLL;
constexpr int64_t NarrowMask = 0x7fffLL;

/// Cap on the product of enclosing loop trip counts: bounds both the
/// dynamic blow-up of one statement and the profile's block frequencies.
constexpr uint64_t MultCap = 4096;

struct ObjInfo {
  int Id = -1;
  uint64_t Elems = 0; ///< Power of two.
  bool Heap = false;
};

class Generator {
public:
  explicit Generator(const GenOptions &Opt)
      : Opt(Opt), RNG(Opt.Seed * 0x9e3779b97f4a7c15ULL + 0x6a09e667ULL) {}

  std::unique_ptr<Program> run();

private:
  /// Per-function emission context. The `Ints` pool only ever holds
  /// registers whose definitions dominate the current insertion point:
  /// entries made inside a loop body or branch arm are truncated when the
  /// region closes.
  struct FnCtx {
    explicit FnCtx(Function *F) : F(F), B(F) {}
    Function *F;
    IRBuilder B;
    std::vector<int> Ints;     ///< Dominating, 32-bit-bounded int values.
    std::vector<int> Bases;    ///< Object index -> base reg (-1 = none).
    std::vector<int> LoopVars; ///< Enclosing induction vars, inner last.
    int Acc = -1;              ///< Loop-carried accumulator register.
    uint64_t Mult = 1;         ///< Product of enclosing trip counts.
    unsigned Depth = 0;        ///< Loop nesting depth.
    bool GlobalsOnly = false;  ///< Helpers do not see malloc'd pointers.
    std::vector<const Function *> Callees;
    std::vector<uint64_t> CalleeCost; ///< Estimated dyn ops per call.

    unsigned ids() const { return F->getNumOpIds(); }
  };

  const GenOptions &Opt;
  Random RNG;
  Program *P = nullptr;
  std::vector<ObjInfo> Objs;
  uint64_t EstDyn = 0; ///< Estimated dynamic ops emitted so far.
  std::vector<uint64_t> HelperCost; ///< Per-helper one-call dyn estimate.

  void chargeDyn(const FnCtx &C, unsigned Ops, uint64_t ExtraMult = 1) {
    EstDyn += static_cast<uint64_t>(Ops) * C.Mult * ExtraMult;
  }
  bool dynTight() const { return EstDyn > Opt.DynOpLimit - Opt.DynOpLimit / 4; }

  void makeObjects();
  unsigned pickObject(const FnCtx &C);
  int intValue(FnCtx &C);
  int poolValue(FnCtx &C);
  int maskNarrow(FnCtx &C, int V) {
    return C.B.and_(V, C.B.movi(NarrowMask));
  }
  int maskPool(FnCtx &C, int V) { return C.B.and_(V, C.B.movi(PoolMask)); }

  void stmtArith(FnCtx &C);
  void stmtFloat(FnCtx &C);
  void stmtMem(FnCtx &C, bool IsStore);
  void stmtCall(FnCtx &C);
  void stmtIf(FnCtx &C);
  void stmtLoop(FnCtx &C);
  void emitStmts(FnCtx &C, unsigned TargetIds);
  void openFunction(FnCtx &C, bool IsMain);
  void closeFunction(FnCtx &C);
};

void Generator::makeObjects() {
  unsigned Lo = std::max(1u, std::min(Opt.MinObjects, Opt.MaxObjects));
  unsigned Hi = std::max(Opt.MinObjects, Opt.MaxObjects);
  unsigned N = Lo + static_cast<unsigned>(RNG.nextBelow(Hi - Lo + 1));
  uint64_t EMin = ceilPow2(std::max<uint64_t>(1, Opt.MinElems));
  uint64_t EMax = ceilPow2(std::max(EMin, Opt.MaxElems));
  unsigned KMin = floorLog2(EMin), KMax = floorLog2(EMax);
  static const uint64_t ElemBytesChoices[] = {1, 2, 4, 8};
  for (unsigned O = 0; O != N; ++O) {
    uint64_t Elems = 1ULL << (KMin + RNG.nextBelow(KMax - KMin + 1));
    uint64_t Bytes = ElemBytesChoices[RNG.nextBelow(4)];
    // The first object is always a global so helpers (which never see
    // malloc'd pointers) have something to access.
    bool Heap = O != 0 && RNG.nextBool(Opt.HeapFraction);
    ObjInfo Info;
    Info.Elems = Elems;
    Info.Heap = Heap;
    if (Heap) {
      Info.Id = P->addHeapSite(formatStr("hs%u", O), Bytes);
    } else {
      Info.Id = P->addGlobal(formatStr("g%u", O), Elems, Bytes);
      if (Opt.WithInit) {
        std::vector<int64_t> Init(static_cast<size_t>(Elems));
        for (auto &V : Init)
          V = RNG.nextInRange(-100, 100);
        P->getObject(static_cast<unsigned>(Info.Id))
            .setInit(std::move(Init));
      }
    }
    Objs.push_back(Info);
  }
}

/// Skewed object pick: each step zooms into the low-index half with
/// probability AccessSkew, concentrating traffic on a hot prefix.
/// Helpers only pick globals (their contexts carry no heap pointers).
unsigned Generator::pickObject(const FnCtx &C) {
  std::vector<unsigned> Cand;
  for (unsigned I = 0; I != Objs.size(); ++I)
    if (!C.GlobalsOnly || !Objs[I].Heap)
      Cand.push_back(I);
  double Skew = std::min(0.95, std::max(0.0, Opt.AccessSkew));
  uint64_t Hi = Cand.size();
  while (Hi > 1 && RNG.nextBool(Skew))
    Hi = (Hi + 1) / 2;
  return Cand[RNG.nextBelow(Hi)];
}

/// An int value usable at the current point: usually from the pool, else
/// a fresh small constant (which also feeds the pool).
int Generator::intValue(FnCtx &C) {
  if (!C.Ints.empty() && RNG.nextBool(0.75))
    return C.Ints[RNG.nextBelow(C.Ints.size())];
  int R = C.B.movi(RNG.nextInRange(0, 255));
  C.Ints.push_back(R);
  return R;
}

/// A pool value (bounded), for positions that must stay 32-bit (store
/// values, phi writes).
int Generator::poolValue(FnCtx &C) {
  if (!C.Ints.empty())
    return C.Ints[RNG.nextBelow(C.Ints.size())];
  int R = C.B.movi(RNG.nextInRange(0, 255));
  C.Ints.push_back(R);
  return R;
}

void Generator::stmtArith(FnCtx &C) {
  unsigned Before = C.ids();
  int V = intValue(C);
  unsigned Steps = 1 + static_cast<unsigned>(RNG.nextBelow(4));
  for (unsigned S = 0; S != Steps; ++S) {
    switch (RNG.nextBelow(8)) {
    case 0:
      V = C.B.add(V, intValue(C));
      break;
    case 1:
      V = C.B.sub(V, intValue(C));
      break;
    case 2:
      V = C.B.mul(maskNarrow(C, V),
                  C.B.movi(RNG.nextInRange(2, 15)));
      break;
    case 3:
      V = C.B.xor_(V, intValue(C));
      break;
    case 4:
      V = RNG.nextBool() ? C.B.min(V, intValue(C))
                         : C.B.max(V, intValue(C));
      break;
    case 5:
      V = C.B.shl(maskNarrow(C, V),
                  C.B.movi(static_cast<int64_t>(RNG.nextBelow(8))));
      break;
    case 6: {
      int Cond = C.B.cmpLT(V, intValue(C));
      V = C.B.select(Cond, intValue(C), V);
      break;
    }
    default:
      V = C.B.abs(V);
      break;
    }
  }
  C.Ints.push_back(maskPool(C, V));
  chargeDyn(C, C.ids() - Before);
}

void Generator::stmtFloat(FnCtx &C) {
  unsigned Before = C.ids();
  int A = C.B.itof(intValue(C));
  unsigned Steps = 1 + static_cast<unsigned>(RNG.nextBelow(3));
  for (unsigned S = 0; S != Steps; ++S) {
    // Half-integer constants: exactly representable, printed exactly by
    // %g, reparsed exactly — float programs round-trip byte-identically.
    double K = static_cast<double>(RNG.nextInRange(-8, 8)) * 0.5;
    switch (RNG.nextBelow(6)) {
    case 0:
      A = C.B.fadd(A, C.B.movf(K));
      break;
    case 1:
      A = C.B.fsub(A, C.B.movf(K));
      break;
    case 2:
      A = C.B.fmul(A, C.B.movf(K));
      break;
    case 3:
      A = RNG.nextBool() ? C.B.fmin(A, C.B.movf(K))
                         : C.B.fmax(A, C.B.movf(K));
      break;
    case 4:
      A = C.B.fneg(A);
      break;
    default:
      A = C.B.fabs(A);
      break;
    }
  }
  C.Ints.push_back(maskPool(C, C.B.ftoi(A)));
  chargeDyn(C, C.ids() - Before);
}

void Generator::stmtMem(FnCtx &C, bool IsStore) {
  unsigned Before = C.ids();
  unsigned OI = pickObject(C);
  const ObjInfo &O = Objs[OI];
  int Base = C.Bases[OI];

  // Index source: the innermost induction variable (plus a small bump),
  // a pool value, or a fresh constant.
  int Idx;
  if (!C.LoopVars.empty() && RNG.nextBool(0.7)) {
    Idx = C.LoopVars.back();
    if (RNG.nextBool(0.4))
      Idx = C.B.add(Idx, C.B.movi(RNG.nextInRange(0, 7)));
  } else if (!C.Ints.empty() && RNG.nextBool(0.5)) {
    Idx = C.Ints[RNG.nextBelow(C.Ints.size())];
  } else {
    Idx = C.B.movi(
        RNG.nextInRange(0, static_cast<int64_t>(O.Elems) - 1));
  }

  // Mask in-bounds. With a constant element offset the index is masked
  // into the lower half so idx+offset stays below Elems.
  int64_t Off = 0;
  if (O.Elems >= 4 && RNG.nextBool(0.3)) {
    Idx = C.B.and_(Idx, C.B.movi(static_cast<int64_t>(O.Elems / 2 - 1)));
    Off = RNG.nextInRange(0, static_cast<int64_t>(O.Elems / 2));
  } else {
    Idx = C.B.and_(Idx, C.B.movi(static_cast<int64_t>(O.Elems - 1)));
  }
  int Addr = C.B.add(Base, Idx);

  if (IsStore) {
    C.B.store(poolValue(C), Addr, Off);
  } else {
    C.Ints.push_back(C.B.load(Addr, Off));
  }
  chargeDyn(C, C.ids() - Before);
}

void Generator::stmtCall(FnCtx &C) {
  uint64_t Pick = RNG.nextBelow(C.Callees.size());
  const Function *Callee = C.Callees[Pick];
  uint64_t Cost = C.CalleeCost[Pick];
  if (EstDyn + Cost * C.Mult > Opt.DynOpLimit) {
    stmtArith(C); // Too hot to call here; keep the draw sequence moving.
    return;
  }
  std::vector<int> Args;
  for (unsigned A = 0; A != Callee->getNumParams(); ++A)
    Args.push_back(poolValue(C));
  C.Ints.push_back(C.B.call(Callee, Args));
  chargeDyn(C, 1);
  EstDyn += Cost * C.Mult;
}

void Generator::stmtIf(FnCtx &C) {
  unsigned Before = C.ids();
  int A = intValue(C), Bv = intValue(C);
  int Cond = RNG.nextBelow(2) ? C.B.cmpLT(A, Bv) : C.B.cmpGE(A, Bv);
  int Phi = C.B.movi(RNG.nextInRange(0, 9));
  BasicBlock *Then = C.B.makeBlock("if.then");
  BasicBlock *Else = C.B.makeBlock("if.else");
  BasicBlock *Join = C.B.makeBlock("if.join");
  C.B.brCond(Cond, Then, Else);

  for (BasicBlock *Arm : {Then, Else}) {
    C.B.setInsertPoint(Arm);
    size_t PoolMark = C.Ints.size();
    unsigned Stmts = 1 + static_cast<unsigned>(RNG.nextBelow(2));
    for (unsigned S = 0; S != Stmts; ++S) {
      if (RNG.nextBool(0.4))
        stmtMem(C, RNG.nextBool());
      else
        stmtArith(C);
    }
    C.B.movTo(Phi, poolValue(C));
    C.Ints.resize(PoolMark); // Arm-local defs do not dominate the join.
    C.B.br(Join);
  }
  C.B.setInsertPoint(Join);
  C.Ints.push_back(Phi);
  // Both arms are charged — a conservative upper bound on dynamic ops.
  chargeDyn(C, C.ids() - Before);
}

void Generator::stmtLoop(FnCtx &C) {
  uint64_t Cap = std::min(std::max<uint64_t>(2, Opt.MaxTrip),
                          MultCap / C.Mult);
  if (Cap < 2 || dynTight() || C.Depth >= Opt.MaxLoopDepth) {
    stmtArith(C);
    return;
  }
  uint64_t Trip = 1ULL << (1 + RNG.nextBelow(floorLog2(Cap)));

  unsigned Before = C.ids();
  IRBuilder::LoopHandle L = C.B.beginCountedLoop(
      0, static_cast<int64_t>(Trip));
  // Header compare/branch re-executes once per iteration.
  chargeDyn(C, C.ids() - Before, Trip);

  C.Mult *= Trip;
  ++C.Depth;
  C.LoopVars.push_back(L.IndVar);
  size_t PoolMark = C.Ints.size();

  unsigned BodyTarget =
      C.ids() + 4 + static_cast<unsigned>(RNG.nextBelow(16));
  emitStmts(C, BodyTarget);
  // Fold a loop-carried value into the accumulator (additive only, so
  // the accumulator's magnitude is bounded by dynamic-op count).
  unsigned AccBefore = C.ids();
  C.B.emitBinaryTo(C.Acc, Opcode::Add, C.Acc,
                   RNG.nextBool(0.3) ? L.IndVar : poolValue(C));
  chargeDyn(C, C.ids() - AccBefore);

  C.Ints.resize(PoolMark);
  C.LoopVars.pop_back();
  --C.Depth;
  C.Mult /= Trip;

  unsigned LatchBefore = C.ids();
  C.B.endCountedLoop(L);
  chargeDyn(C, C.ids() - LatchBefore, Trip);
}

void Generator::emitStmts(FnCtx &C, unsigned TargetIds) {
  while (C.ids() < TargetIds) {
    unsigned Left = TargetIds - C.ids();
    if (Left >= 16 && C.Depth < Opt.MaxLoopDepth && !dynTight() &&
        RNG.nextBool(0.2)) {
      stmtLoop(C);
      continue;
    }
    if (Left >= 12 && RNG.nextBool(Opt.BranchFraction)) {
      stmtIf(C);
      continue;
    }
    if (!C.Callees.empty() && RNG.nextBool(0.12)) {
      stmtCall(C);
      continue;
    }
    if (RNG.nextBool(0.4)) {
      stmtMem(C, /*IsStore=*/RNG.nextBool());
      continue;
    }
    if (RNG.nextBool(Opt.FloatFraction)) {
      stmtFloat(C);
      continue;
    }
    stmtArith(C);
  }
}

/// Entry block: parameters into the pool, base addresses for every
/// visible object (main additionally performs the one malloc per heap
/// site, so every site is sized by the profiling run), accumulator init.
void Generator::openFunction(FnCtx &C, bool IsMain) {
  C.GlobalsOnly = !IsMain;
  C.B.setInsertPoint(C.B.makeBlock("entry"));
  for (unsigned A = 0; A != C.F->getNumParams(); ++A)
    C.Ints.push_back(static_cast<int>(A));
  C.Bases.assign(Objs.size(), -1);
  unsigned Before = C.ids();
  for (unsigned I = 0; I != Objs.size(); ++I) {
    const ObjInfo &O = Objs[I];
    if (O.Heap) {
      if (IsMain)
        C.Bases[I] = C.B.mallocOp(
            C.B.movi(static_cast<int64_t>(O.Elems)), O.Id);
    } else {
      C.Bases[I] = C.B.addrOf(O.Id);
    }
  }
  C.Acc = C.B.movi(RNG.nextInRange(0, 9));
  chargeDyn(C, C.ids() - Before);
}

void Generator::closeFunction(FnCtx &C) {
  unsigned Before = C.ids();
  C.B.ret(maskPool(C, C.Acc));
  chargeDyn(C, C.ids() - Before);
}

std::unique_ptr<Program> Generator::run() {
  auto Prog = std::make_unique<Program>(
      formatStr("gen_s%llu", static_cast<unsigned long long>(Opt.Seed)));
  P = Prog.get();
  makeObjects();

  unsigned NumHelpers =
      static_cast<unsigned>(RNG.nextBelow(Opt.MaxHelpers + 1));
  // Tiny programs skip helpers entirely — the budget would starve main.
  if (Opt.TargetOps < 60)
    NumHelpers = 0;
  unsigned HelperBudget =
      NumHelpers
          ? std::min(2000u, std::max(16u, Opt.TargetOps / 5 / NumHelpers))
          : 0;

  std::vector<Function *> Helpers;
  for (unsigned H = 0; H != NumHelpers; ++H) {
    unsigned Params = 1 + static_cast<unsigned>(RNG.nextBelow(3));
    Function *F = P->makeFunction(formatStr("h%u", H), Params);
    FnCtx C(F);
    // DAG call graph: helper H may only call lower-numbered helpers.
    unsigned Fanout =
        static_cast<unsigned>(RNG.nextBelow(Opt.MaxCallFanout + 1));
    for (unsigned Pick = 0; Pick != Fanout && H != 0; ++Pick) {
      uint64_t J = RNG.nextBelow(H);
      C.Callees.push_back(Helpers[J]);
      C.CalleeCost.push_back(HelperCost[J]);
    }
    uint64_t DynBefore = EstDyn;
    openFunction(C, /*IsMain=*/false);
    emitStmts(C, C.ids() + HelperBudget);
    closeFunction(C);
    HelperCost.push_back(std::max<uint64_t>(1, EstDyn - DynBefore));
    Helpers.push_back(F);
  }

  Function *Main = P->makeFunction("main", 0);
  P->setEntry(Main->getId());
  FnCtx C(Main);
  unsigned Fanout = std::min<unsigned>(
      NumHelpers, std::max(1u, Opt.MaxCallFanout));
  for (unsigned Pick = 0; Pick != Fanout && NumHelpers != 0; ++Pick) {
    uint64_t J = RNG.nextBelow(NumHelpers);
    C.Callees.push_back(Helpers[J]);
    C.CalleeCost.push_back(HelperCost[J]);
  }
  openFunction(C, /*IsMain=*/true);
  unsigned Emitted = 0;
  for (Function *H : Helpers)
    Emitted += H->getNumOpIds();
  unsigned MainTarget =
      Opt.TargetOps > Emitted + C.ids() ? Opt.TargetOps - Emitted : C.ids();
  emitStmts(C, MainTarget);
  closeFunction(C);

  VerifyResult VR = verifyProgram(*Prog);
  if (!VR.ok()) {
    std::fprintf(stderr,
                 "gen: generated program failed verification (generator "
                 "bug)\n  repro: %s\n  first error: %s\n",
                 reproCommand(Opt).c_str(), VR.Errors.front().c_str());
    return nullptr;
  }
  return Prog;
}

} // namespace

namespace gdp {
namespace gen {

GenOptions GenOptions::smallDifferential(uint64_t Seed) {
  GenOptions O;
  O.Seed = Seed;
  // Enough loop work that profile weights dominate fixed schedule
  // overheads — on near-straight-line programs the cycle counts are so
  // small that placement ratios are noise, not signal.
  O.TargetOps = 200;
  O.MinObjects = 4;
  O.MaxObjects = 7; // <= 2^7 placements: exhaustiveSearch stays cheap.
  O.MinElems = 8;
  O.MaxElems = 64;
  O.HeapFraction = 0.15;
  O.AccessSkew = 0.5;
  O.MaxLoopDepth = 2;
  O.MaxTrip = 32;
  O.MaxHelpers = 2;
  O.FloatFraction = 0.1;
  O.DynOpLimit = 200000;
  return O;
}

GenOptions GenOptions::property(uint64_t Seed) {
  GenOptions O;
  O.Seed = Seed;
  O.TargetOps = 140;
  O.MinObjects = 3;
  O.MaxObjects = 6;
  O.MinElems = 16;
  O.MaxElems = 64;
  O.HeapFraction = 0.2;
  O.MaxLoopDepth = 2;
  O.MaxTrip = 16;
  O.MaxHelpers = 2;
  O.DynOpLimit = 200000;
  return O;
}

GenOptions GenOptions::scale(uint64_t Seed, unsigned Ops) {
  GenOptions O;
  O.Seed = Seed;
  O.TargetOps = Ops;
  O.MinObjects = 8;
  O.MaxObjects = 24;
  O.MinElems = 16;
  O.MaxElems = 1024;
  O.HeapFraction = 0.25;
  O.AccessSkew = 0.6;
  O.MaxLoopDepth = 3;
  O.MaxTrip = 64;
  O.MaxHelpers = 5;
  O.MaxCallFanout = 3;
  O.DynOpLimit = 8000000;
  return O;
}

std::unique_ptr<Program> generateProgram(const GenOptions &Opt) {
  return Generator(Opt).run();
}

std::string reproCommand(const GenOptions &Opt) {
  const GenOptions Def;
  std::string Cmd = formatStr(
      "gdptool gen --seed=%llu --ops=%u",
      static_cast<unsigned long long>(Opt.Seed), Opt.TargetOps);
  if (Opt.MinObjects != Def.MinObjects || Opt.MaxObjects != Def.MaxObjects)
    Cmd += formatStr(" --objects=%u:%u", Opt.MinObjects, Opt.MaxObjects);
  if (Opt.MinElems != Def.MinElems || Opt.MaxElems != Def.MaxElems)
    Cmd += formatStr(" --elems=%llu:%llu",
                     static_cast<unsigned long long>(Opt.MinElems),
                     static_cast<unsigned long long>(Opt.MaxElems));
  if (Opt.HeapFraction != Def.HeapFraction)
    Cmd += formatStr(" --heap=%g", Opt.HeapFraction);
  if (Opt.AccessSkew != Def.AccessSkew)
    Cmd += formatStr(" --skew=%g", Opt.AccessSkew);
  if (Opt.MaxLoopDepth != Def.MaxLoopDepth)
    Cmd += formatStr(" --depth=%u", Opt.MaxLoopDepth);
  if (Opt.MaxTrip != Def.MaxTrip)
    Cmd += formatStr(" --trip=%llu",
                     static_cast<unsigned long long>(Opt.MaxTrip));
  if (Opt.MaxHelpers != Def.MaxHelpers)
    Cmd += formatStr(" --helpers=%u", Opt.MaxHelpers);
  if (Opt.MaxCallFanout != Def.MaxCallFanout)
    Cmd += formatStr(" --fanout=%u", Opt.MaxCallFanout);
  if (Opt.FloatFraction != Def.FloatFraction)
    Cmd += formatStr(" --float=%g", Opt.FloatFraction);
  if (Opt.BranchFraction != Def.BranchFraction)
    Cmd += formatStr(" --branch=%g", Opt.BranchFraction);
  if (Opt.WithInit != Def.WithInit)
    Cmd += " --noinit";
  if (Opt.DynOpLimit != Def.DynOpLimit)
    Cmd += formatStr(" --dynlimit=%llu",
                     static_cast<unsigned long long>(Opt.DynOpLimit));
  return Cmd;
}

bool parseGenSpec(const std::string &Spec, GenOptions &Out) {
  if (Spec.rfind("gen:", 0) != 0)
    return false;
  std::string Rest = Spec.substr(4);
  size_t Colon = Rest.find(':');
  uint64_t Seed = 0, Ops = GenOptions().TargetOps;
  if (!parseUnsigned(Rest.substr(0, Colon), Seed))
    return false;
  if (Colon != std::string::npos &&
      (!parseUnsigned(Rest.substr(Colon + 1), Ops) || Ops == 0 ||
       Ops > 2000000))
    return false;
  Out = GenOptions();
  Out.Seed = Seed;
  Out.TargetOps = static_cast<unsigned>(Ops);
  return true;
}

} // namespace gen
} // namespace gdp
