//===- profile/Interpreter.cpp - Profiling IR interpreter -------------------===//
//
// run() lowers the program into one array of fixed-size records (block
// after block, function after function) and interprets that array. Every
// frame's registers live on one stack. Block frequencies are counted per
// program-wide block, and each memory operation counts the run of
// accesses it is making to one object in a slot of its own; a run is
// added to the profile when the operation turns to another object or the
// program ends. With a summary sink, each frame also keeps the objects
// its current block execution touched, and the execution is added to the
// summary when its terminator runs.
//
//===----------------------------------------------------------------------===//

#include "profile/Interpreter.h"

#include "ir/IRPrinter.h"
#include "ir/Program.h"
#include "profile/TraceSummary.h"
#include "support/StrUtil.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace gdp;

namespace {

/// One operation lowered for the run loop: opcode, registers and
/// immediates inline, so a step reads one 32-byte record instead of
/// walking the IR's block, operation and operand vectors.
struct DecodedOp {
  Opcode Op;
  int32_t Dest; ///< Destination register, or -1.
  int32_t A, B; ///< First and second source registers.
  /// Select: third source register. Br, BrCond: taken and not-taken block
  /// (program-wide). Call: callee, and the index of its first argument
  /// register in Decoded::Args. Load, Store: memory slot, and position
  /// among the block's memory operations. Malloc: site. Ret: 1 when it
  /// returns a value.
  int32_t X, Y;
  union {
    int64_t Imm; ///< MovI, AddrOf, Load, Store; a Call's argument count.
    double FImm; ///< MovF.
  };
};

/// The accesses one memory operation is making to one object in a row.
struct AccessRun {
  uint32_t Func, OpId; ///< The memory operation.
  int32_t Obj = -1;
  uint64_t Len = 0;
};

/// The program lowered for one run. Blocks and memory operations
/// ("slots") are numbered program-wide, function after function.
struct Decoded {
  std::vector<DecodedOp> Code;
  std::vector<uint32_t> BlockStart; ///< Code index of each block.
  std::vector<uint32_t> FirstBlock; ///< Each function's block 0.
  std::vector<int32_t> Args;        ///< Every call's argument registers.
  std::vector<AccessRun> Runs;      ///< One per slot.
  uint32_t MaxMemOps = 0;           ///< Most memory operations in a block.

  explicit Decoded(const Program &P);
};

Decoded::Decoded(const Program &P) {
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    int32_t Base = static_cast<int32_t>(BlockStart.size());
    FirstBlock.push_back(static_cast<uint32_t>(Base));
    for (const auto &BB : P.getFunction(F).blocks()) {
      BlockStart.push_back(static_cast<uint32_t>(Code.size()));
      uint32_t MemOps = 0;
      for (const auto &OpPtr : BB->operations()) {
        const Operation &Op = *OpPtr;
        unsigned NumSrcs = Op.getNumSrcs();
        DecodedOp D{};
        D.Op = Op.getOpcode();
        D.Dest = Op.getDest();
        D.A = NumSrcs > 0 ? Op.getSrc(0) : 0;
        D.B = NumSrcs > 1 ? Op.getSrc(1) : 0;
        D.Imm = Op.getImm();
        switch (D.Op) {
        case Opcode::Select:
          D.X = Op.getSrc(2);
          break;
        case Opcode::MovF:
          D.FImm = Op.getFImm();
          break;
        case Opcode::BrCond:
          D.Y = Base + Op.getTarget(1);
          [[fallthrough]];
        case Opcode::Br:
          D.X = Base + Op.getTarget(0);
          break;
        case Opcode::Call:
          D.X = Op.getCallee();
          D.Y = static_cast<int32_t>(Args.size());
          D.Imm = NumSrcs;
          Args.insert(Args.end(), Op.getSrcs().begin(), Op.getSrcs().end());
          break;
        case Opcode::Load:
        case Opcode::Store:
          D.X = static_cast<int32_t>(Runs.size());
          D.Y = static_cast<int32_t>(MemOps++);
          Runs.push_back({F, static_cast<uint32_t>(Op.getId())});
          break;
        case Opcode::Malloc:
          D.X = Op.getMallocSite();
          break;
        case Opcode::Ret:
          D.X = NumSrcs > 0;
          break;
        default:
          break;
        }
        Code.push_back(D);
      }
      MaxMemOps = std::max(MaxMemOps, MemOps);
    }
  }
}

/// A frame of the call stack: its function, its registers' place on the
/// register stack, the register of its caller that takes its return value,
/// and, while it is suspended at a call, where it resumes and its
/// execution of the calling block.
struct Frame {
  uint32_t Func;
  uint32_t RegBase;
  int32_t CallerDest;
  const DecodedOp *Resume = nullptr;
  uint32_t Block = 0;
  int32_t Pred = -1;
};

constexpr uint32_t NoVariant = ~0u;

uint64_t mix(uint64_t H, uint32_t V) {
  H = (H ^ V) * 0x9E3779B97F4A7C15ull;
  return H ^ (H >> 29);
}

/// Builds a TraceSummary while the interpreter runs. When a block
/// execution finishes, it is looked up among its block's variants by its
/// predecessor and the objects its memory operations touched: first the
/// variant of the block's previous execution, then by hash over every
/// variant seen.
class SummaryBuilder {
public:
  /// Sizes \p Sink for \p P with no variants and indexes its blocks
  /// program-wide.
  void reset(TraceSummary &Sink, const Program &P) {
    Sink.Blocks.assign(P.getNumFunctions(), {});
    for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
      const Function &Fn = P.getFunction(F);
      Sink.Blocks[F].resize(Fn.getNumBlocks());
      for (unsigned B = 0; B != Fn.getNumBlocks(); ++B) {
        const auto &Ops = Fn.getBlock(B).operations();
        Sink.Blocks[F][B].NumMemOps = static_cast<uint32_t>(
            std::count_if(Ops.begin(), Ops.end(), [](const auto &Op) {
              return Op->isMemoryAccess();
            }));
        Blocks.push_back(&Sink.Blocks[F][B]);
      }
    }
    Last.assign(Blocks.size(), NoVariant);
  }

  /// Counts one execution of program-wide block \p Block that followed
  /// block \p Pred of its function and touched objects \p Objs.
  void finish(uint32_t Block, int32_t Pred, const int32_t *Objs) {
    TraceSummary::Block &SB = *Blocks[Block];
    uint32_t N = SB.NumMemOps;
    auto Same = [&](uint32_t V) {
      return SB.Variants[V].Pred == Pred &&
             std::equal(Objs, Objs + N, SB.objectsOf(V));
    };
    uint32_t &V = Last[Block];
    if (V == NoVariant || !Same(V)) {
      uint64_t Hash = mix(mix(0, Block), static_cast<uint32_t>(Pred));
      for (uint32_t I = 0; I != N; ++I)
        Hash = mix(Hash, static_cast<uint32_t>(Objs[I]));
      V = NoVariant;
      for (auto [It, End] = Index.equal_range(Hash); It != End; ++It)
        if (It->second.first == Block && Same(It->second.second))
          V = It->second.second;
      if (V == NoVariant) {
        V = static_cast<uint32_t>(SB.Variants.size());
        SB.Variants.push_back({Pred, 0});
        SB.Objects.insert(SB.Objects.end(), Objs, Objs + N);
        Index.emplace(Hash, std::make_pair(Block, V));
      }
    }
    ++SB.Variants[V].Count;
  }

private:
  std::vector<TraceSummary::Block *> Blocks; ///< By program-wide block.
  std::vector<uint32_t> Last; ///< Variant of each block's last execution.
  /// (block, variant) of every variant seen, by hash.
  std::unordered_multimap<uint64_t, std::pair<uint32_t, uint32_t>> Index;
};

void setI(RtValue &V, int64_t X) {
  V.I = X;
  V.F = static_cast<double>(X);
}

void setF(RtValue &V, double X) {
  V.F = X;
  V.I = floatToIntLane(X);
}

// Address encoding: high 32 bits region index, low 32 bits element offset.
int64_t makeAddr(uint64_t Region) {
  return static_cast<int64_t>(Region << 32);
}

} // namespace

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
  Profile = ProfileData(Prog);
  Regions.clear();

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
  return Summary ? execute<true>(MaxSteps) : execute<false>(MaxSteps);
}

template <bool Summarize>
InterpResult Interpreter::execute(uint64_t MaxSteps) {
  InterpResult R;
  SummaryBuilder Builder;
  if constexpr (Summarize)
    Builder.reset(*Summary, Prog);
  if (Prog.getEntryId() < 0) {
    R.Error = "program has no entry function";
    return R;
  }

  Decoded L(Prog);
  const DecodedOp *Code = L.Code.data();
  std::vector<uint64_t> Freq(L.BlockStart.size(), 0);
  std::vector<RtValue> RegStack;
  std::vector<Frame> Stack;
  // Summary state: each frame's objects of its current block execution
  // (MaxMemOps per frame), and the block of each function id whose
  // execution started last.
  std::vector<int32_t> ObjStack;
  std::vector<int32_t> LastBlock;
  if constexpr (Summarize)
    LastBlock.assign(L.FirstBlock.size(), -1);

  // The running frame, cached: its function, the block it executes, that
  // execution's predecessor, the next operation and its registers.
  uint32_t CurFunc = 0, CurBlock = 0;
  int32_t Pred = -1;
  const DecodedOp *Op = nullptr;
  RtValue *Regs = nullptr;
  int32_t *Objs = nullptr;
  std::string Error;
  // Hot-loop event counts, flushed to telemetry once after the run.
  uint64_t Steps = 0, MemOps = 0, Allocs = 0, Calls = 0;

  auto Fail = [&](const DecodedOp &At, const std::string &Msg) {
    const Operation &Src =
        Prog.getFunction(CurFunc)
            .getBlock(CurBlock - L.FirstBlock[CurFunc])
            .getOp(static_cast<unsigned>(&At - Code - L.BlockStart[CurBlock]));
    Error = formatStr("runtime error at '%s': %s",
                      printOperation(Src).c_str(), Msg.c_str());
  };
  auto Enter = [&](uint32_t Block) {
    ++Freq[Block];
    CurBlock = Block;
    Op = Code + L.BlockStart[Block];
    if constexpr (Summarize) {
      // Block 0 is a fresh invocation: the previous block of this
      // function id (possibly another frame's) is not its predecessor.
      int32_t Local = static_cast<int32_t>(Block - L.FirstBlock[CurFunc]);
      Pred = Local == 0 ? -1 : LastBlock[CurFunc];
      LastBlock[CurFunc] = Local;
    }
  };
  auto Push = [&](uint32_t Func, int32_t CallerDest) {
    uint32_t RegBase = static_cast<uint32_t>(RegStack.size());
    RegStack.resize(RegBase + Prog.getFunction(Func).getNumVRegs());
    Regs = RegStack.data() + RegBase;
    Stack.push_back({Func, RegBase, CallerDest});
    if constexpr (Summarize) {
      ObjStack.resize(Stack.size() * L.MaxMemOps);
      Objs = ObjStack.data() + (Stack.size() - 1) * L.MaxMemOps;
    }
    CurFunc = Func;
    Enter(L.FirstBlock[Func]);
  };
  // The region Addr + D.Imm points into and the offset there; null, with
  // the error set, when there is none.
  auto Locate = [&](const DecodedOp &D, int64_t Addr,
                    uint64_t &Off) -> Region * {
    uint64_t Full = static_cast<uint64_t>(Addr) + static_cast<uint64_t>(D.Imm);
    uint64_t RegIdx = Full >> 32;
    Off = Full & 0xffffffffULL;
    if (RegIdx >= Regions.size()) {
      Fail(D, formatStr("bad address (region %llu of %zu)",
                        static_cast<unsigned long long>(RegIdx),
                        Regions.size()));
      return nullptr;
    }
    Region &Rg = Regions[RegIdx];
    if (Off >= Rg.Cells.size()) {
      Fail(D, formatStr("out-of-bounds access to %s (index %llu of %zu)",
                        Prog.getObject(static_cast<unsigned>(Rg.ObjectId))
                            .getName()
                            .c_str(),
                        static_cast<unsigned long long>(Off),
                        Rg.Cells.size()));
      return nullptr;
    }
    return &Rg;
  };
  auto Count = [&](const DecodedOp &D, int32_t Obj) {
    AccessRun &Run = L.Runs[static_cast<uint32_t>(D.X)];
    if (Run.Obj != Obj) {
      if (Run.Len)
        Profile.addAccess(Run.Func, Run.OpId, Run.Obj, Run.Len);
      Run.Obj = Obj;
      Run.Len = 0;
    }
    ++Run.Len;
    ++MemOps;
    if constexpr (Summarize)
      Objs[D.Y] = Obj;
  };

  Push(static_cast<uint32_t>(Prog.getEntryId()), -1);
  for (;;) {
    const DecodedOp &D = *Op;
    if (++Steps > MaxSteps) {
      Fail(D, formatStr("step limit of %llu exceeded",
                        static_cast<unsigned long long>(MaxSteps)));
      break;
    }
    // Operands are read only where the opcode has them.
    auto IA = [&] { return Regs[D.A].I; };
    auto IB = [&] { return Regs[D.B].I; };
    auto UA = [&] { return static_cast<uint64_t>(Regs[D.A].I); };
    auto UB = [&] { return static_cast<uint64_t>(Regs[D.B].I); };
    auto FA = [&] { return Regs[D.A].F; };
    auto FB = [&] { return Regs[D.B].F; };
    auto Out = [&]() -> RtValue & { return Regs[D.Dest]; };

    switch (D.Op) {
    // Add, Sub, Mul and Abs wrap (two's complement): they compute through
    // uint64_t, as signed overflow is undefined behaviour in C++.
    case Opcode::Add:
      setI(Out(), static_cast<int64_t>(UA() + UB()));
      break;
    case Opcode::Sub:
      setI(Out(), static_cast<int64_t>(UA() - UB()));
      break;
    case Opcode::Mul:
      setI(Out(), static_cast<int64_t>(UA() * UB()));
      break;
    case Opcode::Div:
      if (IB() == 0 || (IA() == INT64_MIN && IB() == -1)) {
        Fail(D, "integer division overflow or by zero");
        goto Stop;
      }
      setI(Out(), IA() / IB());
      break;
    case Opcode::Rem:
      if (IB() == 0 || (IA() == INT64_MIN && IB() == -1)) {
        Fail(D, "integer remainder overflow or by zero");
        goto Stop;
      }
      setI(Out(), IA() % IB());
      break;
    case Opcode::And:
      setI(Out(), IA() & IB());
      break;
    case Opcode::Or:
      setI(Out(), IA() | IB());
      break;
    case Opcode::Xor:
      setI(Out(), IA() ^ IB());
      break;
    case Opcode::Shl:
      setI(Out(), static_cast<int64_t>(UA() << (IB() & 63)));
      break;
    case Opcode::AShr:
      setI(Out(), IA() >> (IB() & 63));
      break;
    case Opcode::LShr:
      setI(Out(), static_cast<int64_t>(UA() >> (IB() & 63)));
      break;
    case Opcode::CmpEQ:
      setI(Out(), IA() == IB());
      break;
    case Opcode::CmpNE:
      setI(Out(), IA() != IB());
      break;
    case Opcode::CmpLT:
      setI(Out(), IA() < IB());
      break;
    case Opcode::CmpLE:
      setI(Out(), IA() <= IB());
      break;
    case Opcode::CmpGT:
      setI(Out(), IA() > IB());
      break;
    case Opcode::CmpGE:
      setI(Out(), IA() >= IB());
      break;
    case Opcode::Min:
      setI(Out(), std::min(IA(), IB()));
      break;
    case Opcode::Max:
      setI(Out(), std::max(IA(), IB()));
      break;
    case Opcode::Abs:
      setI(Out(), IA() < 0 ? static_cast<int64_t>(0 - UA()) : IA());
      break;
    case Opcode::Select:
      Out() = IA() != 0 ? Regs[D.B] : Regs[D.X];
      break;
    case Opcode::FAdd:
      setF(Out(), FA() + FB());
      break;
    case Opcode::FSub:
      setF(Out(), FA() - FB());
      break;
    case Opcode::FMul:
      setF(Out(), FA() * FB());
      break;
    case Opcode::FDiv:
      setF(Out(), FA() / FB()); // IEEE semantics; inf/nan allowed.
      break;
    case Opcode::FNeg:
      setF(Out(), -FA());
      break;
    case Opcode::FAbs:
      setF(Out(), FA() < 0 ? -FA() : FA());
      break;
    case Opcode::FMin:
      setF(Out(), std::min(FA(), FB()));
      break;
    case Opcode::FMax:
      setF(Out(), std::max(FA(), FB()));
      break;
    case Opcode::FCmpEQ:
      setI(Out(), FA() == FB());
      break;
    case Opcode::FCmpLT:
      setI(Out(), FA() < FB());
      break;
    case Opcode::FCmpLE:
      setI(Out(), FA() <= FB());
      break;
    case Opcode::ItoF:
      setF(Out(), static_cast<double>(IA()));
      break;
    case Opcode::FtoI:
      setI(Out(), floatToIntLane(FA()));
      break;
    case Opcode::MovI:
      setI(Out(), D.Imm);
      break;
    case Opcode::MovF:
      setF(Out(), D.FImm);
      break;
    case Opcode::Mov:
    case Opcode::ICMove:
      Out() = Regs[D.A];
      break;
    case Opcode::AddrOf:
      setI(Out(), makeAddr(static_cast<uint64_t>(D.Imm)));
      break;
    case Opcode::Load: {
      uint64_t Off;
      Region *Rg = Locate(D, IA(), Off);
      if (!Rg)
        goto Stop;
      Out() = Rg->Cells[Off];
      Count(D, Rg->ObjectId);
      break;
    }
    case Opcode::Store: {
      uint64_t Off;
      Region *Rg = Locate(D, IB(), Off);
      if (!Rg)
        goto Stop;
      Rg->Cells[Off] = Regs[D.A];
      Count(D, Rg->ObjectId);
      break;
    }
    case Opcode::Malloc: {
      if (IA() < 0 || IA() > (1 << 28)) {
        Fail(D, formatStr("bad allocation size %lld",
                          static_cast<long long>(IA())));
        goto Stop;
      }
      setI(Out(), makeAddr(Regions.size()));
      Regions.push_back({D.X, std::vector<RtValue>(static_cast<size_t>(IA()))});
      Profile.addHeapBytes(D.X, static_cast<uint64_t>(IA()) *
                                    Prog.getObject(static_cast<unsigned>(D.X))
                                        .getElemBytes());
      Profile.addHeapAlloc(D.X);
      ++Allocs;
      break;
    }
    case Opcode::Br:
      if constexpr (Summarize)
        Builder.finish(CurBlock, Pred, Objs);
      Enter(static_cast<uint32_t>(D.X));
      continue;
    case Opcode::BrCond:
      if constexpr (Summarize)
        Builder.finish(CurBlock, Pred, Objs);
      Enter(static_cast<uint32_t>(IA() != 0 ? D.X : D.Y));
      continue;
    case Opcode::Call: {
      // Suspend the caller after the call, then pass the arguments.
      Frame &Caller = Stack.back();
      Caller.Resume = Op + 1;
      Caller.Block = CurBlock;
      Caller.Pred = Pred;
      uint32_t CallerBase = Caller.RegBase;
      Push(static_cast<uint32_t>(D.X), D.Dest);
      const RtValue *CallerRegs = RegStack.data() + CallerBase;
      const int32_t *ArgRegs = L.Args.data() + D.Y;
      for (int64_t I = 0; I != D.Imm; ++I)
        Regs[I] = CallerRegs[ArgRegs[I]];
      ++Calls;
      continue;
    }
    case Opcode::Ret: {
      if constexpr (Summarize)
        Builder.finish(CurBlock, Pred, Objs);
      RtValue RetV = D.X ? Regs[D.A] : RtValue();
      Frame Done = Stack.back();
      Stack.pop_back();
      if (Stack.empty()) {
        R.HasReturn = D.X != 0;
        R.ReturnValue = RetV;
        goto Stop;
      }
      if (Done.CallerDest >= 0 && !D.X) {
        Fail(D, "void return bound to a call result");
        goto Stop;
      }
      RegStack.resize(Done.RegBase);
      const Frame &Caller = Stack.back();
      CurFunc = Caller.Func;
      CurBlock = Caller.Block;
      Pred = Caller.Pred;
      Op = Caller.Resume;
      Regs = RegStack.data() + Caller.RegBase;
      if constexpr (Summarize)
        Objs = ObjStack.data() + (Stack.size() - 1) * L.MaxMemOps;
      if (Done.CallerDest >= 0)
        Regs[Done.CallerDest] = RetV;
      continue;
    }
    }
    ++Op;
  }
Stop:
  R.Steps = Steps;
  R.Ok = Error.empty();
  R.Error = std::move(Error);

  // Write the run's counts into the profile.
  for (const AccessRun &Run : L.Runs)
    if (Run.Len)
      Profile.addAccess(Run.Func, Run.OpId, Run.Obj, Run.Len);
  for (unsigned F = 0; F != Prog.getNumFunctions(); ++F)
    for (unsigned B = 0; B != Prog.getFunction(F).getNumBlocks(); ++B)
      if (uint64_t N = Freq[L.FirstBlock[F] + B])
        Profile.addBlockFreq(F, B, N);

  if (telemetry::enabled()) {
    telemetry::counter("interp.runs");
    telemetry::counter("interp.steps", R.Steps);
    telemetry::counter("interp.mem_ops", MemOps);
    telemetry::counter("interp.heap_allocs", Allocs);
    telemetry::counter("interp.calls", Calls);
  }
  return R;
}
