//===- profile/Interpreter.cpp - Profiling IR interpreter -------------------===//

#include "profile/Interpreter.h"

#include "ir/IRPrinter.h"
#include "profile/ExecTrace.h"
#include "ir/Program.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"

#include <cassert>
#include <climits>

using namespace gdp;

Interpreter::Interpreter(const Program &P) : Prog(P), Profile(P) {}

int64_t Interpreter::readGlobalInt(unsigned ObjectId, uint64_t Index) const {
  assert(ObjectId < Regions.size() && "global region missing; call run()");
  assert(Index < Regions[ObjectId].Cells.size() && "index out of bounds");
  return Regions[ObjectId].Cells[Index].I;
}

unsigned Interpreter::getNumHeapRegions() const {
  return static_cast<unsigned>(Regions.size()) - Prog.getNumObjects();
}

InterpResult Interpreter::run(uint64_t MaxSteps) {
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
      Regs[Op.getDest()].I = static_cast<int64_t>(V);
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
    case Opcode::Add:
      WrI(RdI(0) + RdI(1));
      break;
    case Opcode::Sub:
      WrI(RdI(0) - RdI(1));
      break;
    case Opcode::Mul:
      WrI(RdI(0) * RdI(1));
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
      WrI(RdI(0) < 0 ? -RdI(0) : RdI(0));
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
      WrI(static_cast<int64_t>(RdF(0)));
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
