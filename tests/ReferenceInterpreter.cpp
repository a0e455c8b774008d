//===- tests/ReferenceInterpreter.cpp - Step-by-step interpreter oracle ---===//

#include "ReferenceInterpreter.h"

#include "ir/IRPrinter.h"
#include "ir/Program.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <functional>

using namespace gdp;

void ExecTrace::reset(const Program &P) {
  Blocks.clear();
  AccessObj.assign(P.getNumFunctions(), {});
  for (unsigned F = 0; F != P.getNumFunctions(); ++F)
    AccessObj[F].resize(P.getFunction(F).getNumOpIds());
}

uint64_t ExecTrace::numAccessEvents() const {
  uint64_t N = 0;
  for (const auto &Fn : AccessObj)
    for (const auto &Stream : Fn)
      N += Stream.size();
  return N;
}

namespace {

constexpr uint32_t NoVariant = ~0u;

/// What the summarizer tracks of one block while it walks the trace.
struct BlockCursor {
  std::vector<uint32_t> OpIds; ///< Memory operations, in program order.
  /// Streams holding more than one object, and the positions of their
  /// operations in OpIds: the only streams read per execution.
  std::vector<const int32_t *> Varying;
  std::vector<uint32_t> VaryingPos;
  size_t MinLen = SIZE_MAX; ///< Length of the shortest stream.
  uint64_t Execs = 0;       ///< Executions so far: the streams' cursor.
  uint32_t Last = NoVariant; ///< Variant of the previous execution.
};

/// Finds a block's variant by its key (predecessor and varying objects)
/// across the whole trace: open addressing over every variant seen.
class VariantIndex {
public:
  VariantIndex() : Slots(256, 0) {}

  /// The variant of block (\p F, \p B) with hash \p Hash that \p Same
  /// accepts, or NoVariant.
  template <typename SameFn>
  uint32_t find(uint64_t Hash, uint32_t F, uint32_t B, SameFn Same) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask; Slots[I]; I = (I + 1) & Mask) {
      const Entry &E = Entries[Slots[I] - 1];
      if (E.Hash == Hash && E.Func == F && E.Block == B && Same(E.Variant))
        return E.Variant;
    }
    return NoVariant;
  }

  void insert(uint64_t Hash, uint32_t F, uint32_t B, uint32_t V) {
    Entries.push_back({Hash, F, B, V});
    if (Entries.size() * 2 > Slots.size()) {
      Slots.assign(Slots.size() * 2, 0);
      for (uint32_t E = 0; E != Entries.size(); ++E)
        place(E);
    } else {
      place(static_cast<uint32_t>(Entries.size() - 1));
    }
  }

private:
  struct Entry {
    uint64_t Hash;
    uint32_t Func, Block, Variant;
  };

  void place(uint32_t E) {
    size_t Mask = Slots.size() - 1;
    size_t I = Entries[E].Hash & Mask;
    while (Slots[I])
      I = (I + 1) & Mask;
    Slots[I] = E + 1;
  }

  std::vector<Entry> Entries;
  std::vector<uint32_t> Slots; ///< Entry index + 1; 0 is empty.
};

uint64_t mix(uint64_t H, uint32_t V) {
  H = (H ^ V) * 0x9E3779B97F4A7C15ull;
  return H ^ (H >> 29);
}

} // namespace

TraceSummary gdp::summarizeTrace(const Program &P, const ExecTrace &T,
                                 std::string *Error) {
  TraceSummary S;
  unsigned NumFuncs = P.getNumFunctions();
  if (T.AccessObj.size() != NumFuncs)
    return S;
  for (unsigned F = 0; F != NumFuncs; ++F)
    if (T.AccessObj[F].size() != P.getFunction(F).getNumOpIds())
      return S;

  std::vector<std::vector<BlockCursor>> Cursors(NumFuncs);
  S.Blocks.resize(NumFuncs);
  for (unsigned F = 0; F != NumFuncs; ++F) {
    const Function &Fn = P.getFunction(F);
    Cursors[F].resize(Fn.getNumBlocks());
    S.Blocks[F].resize(Fn.getNumBlocks());
    for (unsigned B = 0; B != Fn.getNumBlocks(); ++B) {
      const BasicBlock &BB = Fn.getBlock(B);
      BlockCursor &C = Cursors[F][B];
      for (unsigned I = 0; I != BB.size(); ++I) {
        if (!BB.getOp(I).isMemoryAccess())
          continue;
        uint32_t Id = static_cast<uint32_t>(BB.getOp(I).getId());
        const std::vector<int32_t> &Stream = T.AccessObj[F][Id];
        C.MinLen = std::min(C.MinLen, Stream.size());
        if (std::adjacent_find(Stream.begin(), Stream.end(),
                               std::not_equal_to<>()) != Stream.end()) {
          C.Varying.push_back(Stream.data());
          C.VaryingPos.push_back(static_cast<uint32_t>(C.OpIds.size()));
        }
        C.OpIds.push_back(Id);
      }
      S.Blocks[F][B].NumMemOps = static_cast<uint32_t>(C.OpIds.size());
    }
  }

  VariantIndex Index;
  std::vector<int32_t> LastBlock(NumFuncs, -1);
  std::vector<int32_t> Key; // This execution's objects of varying streams.
  for (const ExecTrace::BlockEvent &Ev : T.Blocks) {
    if (Ev.Func >= NumFuncs || Ev.Block >= Cursors[Ev.Func].size()) {
      if (Error)
        *Error = formatStr("trace event (%u, %u) out of range", Ev.Func,
                           Ev.Block);
      return S;
    }
    BlockCursor &C = Cursors[Ev.Func][Ev.Block];
    TraceSummary::Block &SB = S.Blocks[Ev.Func][Ev.Block];
    uint64_t K = C.Execs++;
    if (K >= C.MinLen)
      for (uint32_t Id : C.OpIds)
        if (K >= T.AccessObj[Ev.Func][Id].size()) {
          if (Error)
            *Error = formatStr("access stream of operation (%u, %u) "
                               "exhausted after %u events (trace/profile "
                               "mismatch)",
                               Ev.Func, Id, static_cast<unsigned>(K));
          return S;
        }

    // Block 0 is a fresh invocation: the previous block of this function
    // id (possibly another frame's) is not this execution's predecessor.
    int32_t Pred = Ev.Block == 0 ? -1 : LastBlock[Ev.Func];
    LastBlock[Ev.Func] = static_cast<int32_t>(Ev.Block);
    Key.resize(C.Varying.size());
    for (size_t J = 0; J != Key.size(); ++J)
      Key[J] = C.Varying[J][K];

    auto Same = [&](uint32_t V) {
      if (SB.Variants[V].Pred != Pred)
        return false;
      const int32_t *Objs = SB.objectsOf(V);
      for (size_t J = 0; J != Key.size(); ++J)
        if (Objs[C.VaryingPos[J]] != Key[J])
          return false;
      return true;
    };
    if (C.Last == NoVariant || !Same(C.Last)) {
      uint64_t Hash = mix(mix(mix(0, Ev.Func), Ev.Block),
                          static_cast<uint32_t>(Pred));
      for (int32_t Obj : Key)
        Hash = mix(Hash, static_cast<uint32_t>(Obj));
      C.Last = Index.find(Hash, Ev.Func, Ev.Block, Same);
      if (C.Last == NoVariant) {
        C.Last = static_cast<uint32_t>(SB.Variants.size());
        SB.Variants.push_back({Pred, 0});
        for (uint32_t Id : C.OpIds)
          SB.Objects.push_back(T.AccessObj[Ev.Func][Id][K]);
        Index.insert(Hash, Ev.Func, Ev.Block, C.Last);
      }
    }
    ++SB.Variants[C.Last].Count;
  }
  return S;
}

ReferenceInterpreter::ReferenceInterpreter(const Program &P)
    : Prog(P), Profile(P) {}

int64_t ReferenceInterpreter::readGlobalInt(unsigned ObjectId,
                                           uint64_t Index) const {
  assert(ObjectId < Regions.size() && "global region missing; call run()");
  assert(Index < Regions[ObjectId].Cells.size() && "index out of bounds");
  return Regions[ObjectId].Cells[Index].I;
}

unsigned ReferenceInterpreter::getNumHeapRegions() const {
  return static_cast<unsigned>(Regions.size()) - Prog.getNumObjects();
}

InterpResult ReferenceInterpreter::run(uint64_t MaxSteps) {
  InterpResult R;
  Profile = ProfileData(Prog);
  Regions.clear();
  if (Trace)
    Trace->reset(Prog);

  // Materialize global storage; region index == object id for globals.
  for (unsigned O = 0; O != Prog.getNumObjects(); ++O) {
    const DataObject &Obj = Prog.getObject(O);
    Region Rg;
    Rg.ObjectId = static_cast<int>(O);
    if (Obj.isGlobal()) {
      Rg.Cells.resize(Obj.getNumElements());
      const auto &Init = Obj.getInit();
      for (size_t I = 0, E = std::min(Init.size(), Rg.Cells.size()); I != E;
           ++I) {
        Rg.Cells[I].I = Init[I];
        Rg.Cells[I].F = static_cast<double>(Init[I]);
      }
    }
    Regions.push_back(std::move(Rg));
  }

  std::vector<Frame> Stack;
  auto PushFrame = [&](const Function &F, int CallerDest) {
    Frame Fr;
    Fr.Func = &F;
    Fr.Regs.resize(F.getNumVRegs());
    Fr.CallerDest = CallerDest;
    Stack.push_back(std::move(Fr));
    Profile.addBlockFreq(static_cast<unsigned>(F.getId()), 0);
    if (Trace)
      Trace->Blocks.push_back({static_cast<uint32_t>(F.getId()), 0});
  };

  if (Prog.getEntryId() < 0) {
    R.Error = "program has no entry function";
    return R;
  }
  PushFrame(Prog.getEntry(), -1);

  std::string Error;
  auto Fail = [&](const Operation &Op, const std::string &Msg) {
    Error = formatStr("runtime error at '%s': %s",
                      printOperation(Op).c_str(), Msg.c_str());
  };

  // Decodes Addr+Extra into a region/offset pair; returns null on error.
  auto Decode = [&](const Operation &Op, int64_t Addr, int64_t Extra,
                    uint64_t &Off) -> Region * {
    int64_t Full = Addr + Extra;
    uint64_t RegIdx = static_cast<uint64_t>(Full) >> 32;
    Off = static_cast<uint64_t>(Full) & 0xffffffffULL;
    if (RegIdx >= Regions.size()) {
      Fail(Op, formatStr("bad address (region %llu of %zu)",
                         static_cast<unsigned long long>(RegIdx),
                         Regions.size()));
      return nullptr;
    }
    Region &Rg = Regions[RegIdx];
    if (Off >= Rg.Cells.size()) {
      Fail(Op, formatStr("out-of-bounds access to %s (index %llu of %zu)",
                         Prog.getObject(static_cast<unsigned>(Rg.ObjectId))
                             .getName()
                             .c_str(),
                         static_cast<unsigned long long>(Off),
                         Rg.Cells.size()));
      return nullptr;
    }
    return &Rg;
  };

  // Hot-loop event counts, flushed to telemetry once after the run.
  uint64_t MemOps = 0, Allocs = 0, Calls = 0;

  while (!Stack.empty() && Error.empty()) {
    // Index-based access: PushFrame may reallocate the stack.
    size_t FrameIdx = Stack.size() - 1;
    const Function &F = *static_cast<const Function *>(Stack[FrameIdx].Func);
    unsigned FId = static_cast<unsigned>(F.getId());
    const BasicBlock &BB =
        F.getBlock(static_cast<unsigned>(Stack[FrameIdx].BlockId));
    assert(Stack[FrameIdx].OpIdx < BB.size() &&
           "fell off the end of a block (verifier should reject this)");
    const Operation &Op = BB.getOp(Stack[FrameIdx].OpIdx);

    if (++R.Steps > MaxSteps) {
      Fail(Op, formatStr("step limit of %llu exceeded",
                         static_cast<unsigned long long>(MaxSteps)));
      break;
    }

    auto &Regs = Stack[FrameIdx].Regs;
    auto RdI = [&](unsigned S) { return Regs[Op.getSrc(S)].I; };
    auto RdF = [&](unsigned S) { return Regs[Op.getSrc(S)].F; };
    auto WrI = [&](int64_t V) {
      Regs[Op.getDest()].I = V;
      Regs[Op.getDest()].F = static_cast<double>(V);
    };
    auto WrF = [&](double V) {
      Regs[Op.getDest()].F = V;
      Regs[Op.getDest()].I = floatToIntLane(V);
    };
    auto Goto = [&](int Target) {
      Stack[FrameIdx].BlockId = Target;
      Stack[FrameIdx].OpIdx = 0;
      Profile.addBlockFreq(FId, static_cast<unsigned>(Target));
      if (Trace)
        Trace->Blocks.push_back({FId, static_cast<uint32_t>(Target)});
    };

    bool Advance = true;
    switch (Op.getOpcode()) {
    // Add, Sub, Mul and Abs wrap (two's complement): they compute through
    // uint64_t, as signed overflow is undefined behaviour in C++.
    case Opcode::Add:
      WrI(static_cast<int64_t>(static_cast<uint64_t>(RdI(0)) +
                               static_cast<uint64_t>(RdI(1))));
      break;
    case Opcode::Sub:
      WrI(static_cast<int64_t>(static_cast<uint64_t>(RdI(0)) -
                               static_cast<uint64_t>(RdI(1))));
      break;
    case Opcode::Mul:
      WrI(static_cast<int64_t>(static_cast<uint64_t>(RdI(0)) *
                               static_cast<uint64_t>(RdI(1))));
      break;
    case Opcode::Div:
      if (RdI(1) == 0 || (RdI(0) == INT64_MIN && RdI(1) == -1)) {
        Fail(Op, "integer division overflow or by zero");
        break;
      }
      WrI(RdI(0) / RdI(1));
      break;
    case Opcode::Rem:
      if (RdI(1) == 0 || (RdI(0) == INT64_MIN && RdI(1) == -1)) {
        Fail(Op, "integer remainder overflow or by zero");
        break;
      }
      WrI(RdI(0) % RdI(1));
      break;
    case Opcode::And:
      WrI(RdI(0) & RdI(1));
      break;
    case Opcode::Or:
      WrI(RdI(0) | RdI(1));
      break;
    case Opcode::Xor:
      WrI(RdI(0) ^ RdI(1));
      break;
    case Opcode::Shl:
      WrI(static_cast<int64_t>(static_cast<uint64_t>(RdI(0))
                               << (RdI(1) & 63)));
      break;
    case Opcode::AShr:
      WrI(RdI(0) >> (RdI(1) & 63));
      break;
    case Opcode::LShr:
      WrI(static_cast<int64_t>(static_cast<uint64_t>(RdI(0)) >>
                               (RdI(1) & 63)));
      break;
    case Opcode::CmpEQ:
      WrI(RdI(0) == RdI(1));
      break;
    case Opcode::CmpNE:
      WrI(RdI(0) != RdI(1));
      break;
    case Opcode::CmpLT:
      WrI(RdI(0) < RdI(1));
      break;
    case Opcode::CmpLE:
      WrI(RdI(0) <= RdI(1));
      break;
    case Opcode::CmpGT:
      WrI(RdI(0) > RdI(1));
      break;
    case Opcode::CmpGE:
      WrI(RdI(0) >= RdI(1));
      break;
    case Opcode::Min:
      WrI(std::min(RdI(0), RdI(1)));
      break;
    case Opcode::Max:
      WrI(std::max(RdI(0), RdI(1)));
      break;
    case Opcode::Abs:
      WrI(RdI(0) < 0 ? static_cast<int64_t>(0 - static_cast<uint64_t>(RdI(0)))
                     : RdI(0));
      break;
    case Opcode::Select:
      Regs[Op.getDest()] = RdI(0) != 0 ? Regs[Op.getSrc(1)]
                                       : Regs[Op.getSrc(2)];
      break;
    case Opcode::FAdd:
      WrF(RdF(0) + RdF(1));
      break;
    case Opcode::FSub:
      WrF(RdF(0) - RdF(1));
      break;
    case Opcode::FMul:
      WrF(RdF(0) * RdF(1));
      break;
    case Opcode::FDiv:
      WrF(RdF(0) / RdF(1)); // IEEE semantics; inf/nan allowed.
      break;
    case Opcode::FNeg:
      WrF(-RdF(0));
      break;
    case Opcode::FAbs:
      WrF(RdF(0) < 0 ? -RdF(0) : RdF(0));
      break;
    case Opcode::FMin:
      WrF(std::min(RdF(0), RdF(1)));
      break;
    case Opcode::FMax:
      WrF(std::max(RdF(0), RdF(1)));
      break;
    case Opcode::FCmpEQ:
      WrI(RdF(0) == RdF(1));
      break;
    case Opcode::FCmpLT:
      WrI(RdF(0) < RdF(1));
      break;
    case Opcode::FCmpLE:
      WrI(RdF(0) <= RdF(1));
      break;
    case Opcode::ItoF:
      WrF(static_cast<double>(RdI(0)));
      break;
    case Opcode::FtoI:
      WrI(floatToIntLane(RdF(0)));
      break;
    case Opcode::MovI:
      WrI(Op.getImm());
      break;
    case Opcode::MovF:
      WrF(Op.getFImm());
      break;
    case Opcode::Mov:
    case Opcode::ICMove:
      Regs[Op.getDest()] = Regs[Op.getSrc(0)];
      break;
    case Opcode::AddrOf:
      WrI(makeAddr(static_cast<uint64_t>(Op.getImm()), 0));
      break;
    case Opcode::Load: {
      uint64_t Off;
      Region *Rg = Decode(Op, RdI(0), Op.getImm(), Off);
      if (!Rg)
        break;
      Regs[Op.getDest()] = Rg->Cells[Off];
      Profile.addAccess(FId, static_cast<unsigned>(Op.getId()), Rg->ObjectId);
      if (Trace)
        Trace->AccessObj[FId][static_cast<unsigned>(Op.getId())].push_back(
            static_cast<int32_t>(Rg->ObjectId));
      ++MemOps;
      break;
    }
    case Opcode::Store: {
      uint64_t Off;
      Region *Rg = Decode(Op, RdI(1), Op.getImm(), Off);
      if (!Rg)
        break;
      Rg->Cells[Off] = Regs[Op.getSrc(0)];
      Profile.addAccess(FId, static_cast<unsigned>(Op.getId()), Rg->ObjectId);
      if (Trace)
        Trace->AccessObj[FId][static_cast<unsigned>(Op.getId())].push_back(
            static_cast<int32_t>(Rg->ObjectId));
      ++MemOps;
      break;
    }
    case Opcode::Malloc: {
      int64_t Size = RdI(0);
      if (Size < 0 || Size > (1 << 28)) {
        Fail(Op, formatStr("bad allocation size %lld",
                           static_cast<long long>(Size)));
        break;
      }
      int Site = Op.getMallocSite();
      Region Rg;
      Rg.ObjectId = Site;
      Rg.Cells.resize(static_cast<size_t>(Size));
      uint64_t RegIdx = Regions.size();
      Regions.push_back(std::move(Rg));
      WrI(makeAddr(RegIdx, 0));
      const DataObject &SiteObj =
          Prog.getObject(static_cast<unsigned>(Site));
      Profile.addHeapBytes(Site,
                           static_cast<uint64_t>(Size) *
                               SiteObj.getElemBytes());
      Profile.addHeapAlloc(Site);
      ++Allocs;
      break;
    }
    case Opcode::Br:
      Goto(Op.getTarget(0));
      Advance = false;
      break;
    case Opcode::BrCond:
      Goto(RdI(0) != 0 ? Op.getTarget(0) : Op.getTarget(1));
      Advance = false;
      break;
    case Opcode::Call: {
      const Function &Callee =
          Prog.getFunction(static_cast<unsigned>(Op.getCallee()));
      // Resume after the call when the callee returns.
      ++Stack[FrameIdx].OpIdx;
      Advance = false;
      std::vector<RtValue> Args(Op.getNumSrcs());
      for (unsigned A = 0; A != Op.getNumSrcs(); ++A)
        Args[A] = Regs[Op.getSrc(A)];
      PushFrame(Callee, Op.getDest());
      for (unsigned A = 0; A != Args.size(); ++A)
        Stack.back().Regs[A] = Args[A];
      ++Calls;
      break;
    }
    case Opcode::Ret: {
      RtValue RetV;
      bool HasV = Op.getNumSrcs() > 0;
      if (HasV)
        RetV = Regs[Op.getSrc(0)];
      int Dest = Stack[FrameIdx].CallerDest;
      Stack.pop_back();
      Advance = false;
      if (Stack.empty()) {
        R.HasReturn = HasV;
        R.ReturnValue = RetV;
      } else if (Dest >= 0) {
        if (!HasV) {
          Fail(Op, "void return bound to a call result");
          break;
        }
        Stack.back().Regs[Dest] = RetV;
      }
      break;
    }
    }

    if (Advance && Error.empty())
      ++Stack[FrameIdx].OpIdx;
  }

  R.Ok = Error.empty();
  R.Error = Error;

  if (telemetry::enabled()) {
    telemetry::counter("interp.runs");
    telemetry::counter("interp.steps", R.Steps);
    telemetry::counter("interp.mem_ops", MemOps);
    telemetry::counter("interp.heap_allocs", Allocs);
    telemetry::counter("interp.calls", Calls);
  }
  return R;
}
