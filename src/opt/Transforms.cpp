//===- opt/Transforms.cpp - Scalar IR cleanups --------------------------------===//

#include "opt/Transforms.h"

#include "analysis/DefUse.h"
#include "analysis/OpIndex.h"
#include "ir/Program.h"

#include <climits>
#include <optional>

using namespace gdp;

namespace {

/// Evaluates a pure integer opcode over constant operands; nullopt when the
/// opcode is not foldable or the evaluation would trap (division by zero /
/// overflow). Mirrors the interpreter's semantics exactly: Add, Sub, Mul
/// and Abs wrap.
std::optional<int64_t> evalConst(Opcode Op, const std::vector<int64_t> &A) {
  switch (Op) {
  case Opcode::Add:
    return static_cast<int64_t>(static_cast<uint64_t>(A[0]) +
                                static_cast<uint64_t>(A[1]));
  case Opcode::Sub:
    return static_cast<int64_t>(static_cast<uint64_t>(A[0]) -
                                static_cast<uint64_t>(A[1]));
  case Opcode::Mul:
    return static_cast<int64_t>(static_cast<uint64_t>(A[0]) *
                                static_cast<uint64_t>(A[1]));
  case Opcode::Div:
    if (A[1] == 0 || (A[0] == INT64_MIN && A[1] == -1))
      return std::nullopt;
    return A[0] / A[1];
  case Opcode::Rem:
    if (A[1] == 0 || (A[0] == INT64_MIN && A[1] == -1))
      return std::nullopt;
    return A[0] % A[1];
  case Opcode::And:
    return A[0] & A[1];
  case Opcode::Or:
    return A[0] | A[1];
  case Opcode::Xor:
    return A[0] ^ A[1];
  case Opcode::Shl:
    return static_cast<int64_t>(static_cast<uint64_t>(A[0])
                                << (A[1] & 63));
  case Opcode::AShr:
    return A[0] >> (A[1] & 63);
  case Opcode::LShr:
    return static_cast<int64_t>(static_cast<uint64_t>(A[0]) >> (A[1] & 63));
  case Opcode::CmpEQ:
    return A[0] == A[1];
  case Opcode::CmpNE:
    return A[0] != A[1];
  case Opcode::CmpLT:
    return A[0] < A[1];
  case Opcode::CmpLE:
    return A[0] <= A[1];
  case Opcode::CmpGT:
    return A[0] > A[1];
  case Opcode::CmpGE:
    return A[0] >= A[1];
  case Opcode::Min:
    return std::min(A[0], A[1]);
  case Opcode::Max:
    return std::max(A[0], A[1]);
  case Opcode::Abs:
    return A[0] < 0 ? static_cast<int64_t>(0 - static_cast<uint64_t>(A[0]))
                    : A[0];
  case Opcode::Select:
    return A[0] != 0 ? A[1] : A[2];
  case Opcode::Mov:
    return A[0];
  default:
    return std::nullopt;
  }
}

/// True for operations DCE may delete when their value is unused: no
/// stores, no control flow, no allocation, no calls.
bool isRemovable(const Operation &Op) {
  switch (Op.getOpcode()) {
  case Opcode::Store:
  case Opcode::Malloc:
  case Opcode::Call:
  case Opcode::Br:
  case Opcode::BrCond:
  case Opcode::Ret:
    return false;
  default:
    return Op.hasDest();
  }
}

} // namespace

unsigned gdp::foldConstants(Function &F) {
  DefUse DU(F);
  OpIndex OI(F);
  unsigned Folded = 0;
  for (const auto &BB : F.blocks()) {
    for (const auto &Op : BB->operations()) {
      if (!Op->hasDest() || Op->getNumSrcs() == 0)
        continue;
      // Every operand must have exactly one reaching definition, and that
      // definition must be an integer constant.
      std::vector<int64_t> Values;
      bool AllConst = true;
      for (unsigned S = 0; S != Op->getNumSrcs() && AllConst; ++S) {
        const auto &Defs =
            DU.defsForUse(static_cast<unsigned>(Op->getId()), S);
        if (Defs.size() != 1 || DU.getDef(Defs[0]).isParam()) {
          AllConst = false;
          break;
        }
        const Operation *Def =
            OI.getOp(static_cast<unsigned>(DU.getDef(Defs[0]).OpId));
        if (!Def || Def->getOpcode() != Opcode::MovI) {
          AllConst = false;
          break;
        }
        Values.push_back(Def->getImm());
      }
      if (!AllConst)
        continue;
      std::optional<int64_t> Result = evalConst(Op->getOpcode(), Values);
      if (!Result)
        continue;
      Op->morphToMovI(*Result);
      ++Folded;
    }
  }
  return Folded;
}

unsigned gdp::propagateCopies(Function &F) {
  DefUse DU(F);
  OpIndex OI(F);
  // Registers written by at least one operation (parameters not counted).
  std::vector<bool> Written(F.getNumVRegs(), false);
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations())
      if (Op->hasDest())
        Written[static_cast<unsigned>(Op->getDest())] = true;

  unsigned Rewritten = 0;
  for (const auto &BB : F.blocks()) {
    for (const auto &Op : BB->operations()) {
      for (unsigned S = 0; S != Op->getNumSrcs(); ++S) {
        const auto &Defs =
            DU.defsForUse(static_cast<unsigned>(Op->getId()), S);
        if (Defs.size() != 1 || DU.getDef(Defs[0]).isParam())
          continue;
        const Operation *Def =
            OI.getOp(static_cast<unsigned>(DU.getDef(Defs[0]).OpId));
        if (!Def || Def->getOpcode() != Opcode::Mov)
          continue;
        int Src = Def->getSrc(0);
        // Safe only when the copied source can never change after the
        // copy: an unwritten register (i.e. a parameter) qualifies
        // unconditionally; anything else would require a same-value proof
        // along every path from the copy to this use.
        if (Src < static_cast<int>(F.getNumParams()) &&
            !Written[static_cast<unsigned>(Src)]) {
          Op->setSrc(S, Src);
          ++Rewritten;
        }
      }
    }
  }
  return Rewritten;
}

unsigned gdp::eliminateDeadCode(Function &F) {
  unsigned Removed = 0;
  // Sweep repeatedly: deleting a consumer exposes its producers.
  for (;;) {
    DefUse DU(F);
    unsigned ThisSweep = 0;
    for (const auto &BB : F.blocks()) {
      for (unsigned I = BB->size(); I-- > 0;) {
        const Operation &Op = BB->getOp(I);
        if (!isRemovable(Op))
          continue;
        if (!DU.usesOfDef(static_cast<unsigned>(Op.getId())).empty())
          continue;
        BB->removeOp(I);
        ++ThisSweep;
      }
    }
    Removed += ThisSweep;
    if (ThisSweep == 0)
      return Removed;
  }
}

unsigned gdp::optimizeProgram(Program &P) {
  unsigned Total = 0;
  for (const auto &F : P.functions()) {
    for (;;) {
      unsigned Changes = foldConstants(*F);
      Changes += propagateCopies(*F);
      Changes += eliminateDeadCode(*F);
      Total += Changes;
      if (Changes == 0)
        break;
    }
  }
  return Total;
}
