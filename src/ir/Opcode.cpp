//===- ir/Opcode.cpp - Operation opcodes and properties -------------------===//

#include "ir/Opcode.h"

#include <cassert>

using namespace gdp;

const char *gdp::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Rem:
    return "rem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::AShr:
    return "ashr";
  case Opcode::LShr:
    return "lshr";
  case Opcode::CmpEQ:
    return "cmpeq";
  case Opcode::CmpNE:
    return "cmpne";
  case Opcode::CmpLT:
    return "cmplt";
  case Opcode::CmpLE:
    return "cmple";
  case Opcode::CmpGT:
    return "cmpgt";
  case Opcode::CmpGE:
    return "cmpge";
  case Opcode::Min:
    return "min";
  case Opcode::Max:
    return "max";
  case Opcode::Abs:
    return "abs";
  case Opcode::Select:
    return "select";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::FNeg:
    return "fneg";
  case Opcode::FAbs:
    return "fabs";
  case Opcode::FMin:
    return "fmin";
  case Opcode::FMax:
    return "fmax";
  case Opcode::FCmpEQ:
    return "fcmpeq";
  case Opcode::FCmpLT:
    return "fcmplt";
  case Opcode::FCmpLE:
    return "fcmple";
  case Opcode::ItoF:
    return "itof";
  case Opcode::FtoI:
    return "ftoi";
  case Opcode::MovI:
    return "movi";
  case Opcode::MovF:
    return "movf";
  case Opcode::Mov:
    return "mov";
  case Opcode::AddrOf:
    return "addrof";
  case Opcode::Load:
    return "ld";
  case Opcode::Store:
    return "st";
  case Opcode::Malloc:
    return "malloc";
  case Opcode::Br:
    return "br";
  case Opcode::BrCond:
    return "brcond";
  case Opcode::Call:
    return "call";
  case Opcode::Ret:
    return "ret";
  case Opcode::ICMove:
    return "icmove";
  }
  assert(false && "unknown opcode");
  return "<bad>";
}

FUKind gdp::opcodeFUKind(Opcode Op) {
  switch (Op) {
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::FAbs:
  case Opcode::FMin:
  case Opcode::FMax:
  case Opcode::FCmpEQ:
  case Opcode::FCmpLT:
  case Opcode::FCmpLE:
  case Opcode::ItoF:
  case Opcode::FtoI:
    return FUKind::Float;
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::Malloc:
    return FUKind::Memory;
  case Opcode::Br:
  case Opcode::BrCond:
  case Opcode::Call:
  case Opcode::Ret:
    return FUKind::Branch;
  case Opcode::ICMove:
    return FUKind::Interconnect;
  default:
    return FUKind::Integer;
  }
}

int gdp::opcodeNumSrcs(Opcode Op) {
  switch (Op) {
  case Opcode::MovI:
  case Opcode::MovF:
  case Opcode::AddrOf:
  case Opcode::Br:
    return 0;
  case Opcode::Mov:
  case Opcode::ICMove:
  case Opcode::Abs:
  case Opcode::FNeg:
  case Opcode::FAbs:
  case Opcode::ItoF:
  case Opcode::FtoI:
  case Opcode::Load:
  case Opcode::BrCond:
  case Opcode::Malloc:
    return 1;
  case Opcode::Select:
    return 3;
  case Opcode::Call:
  case Opcode::Ret:
    return -1; // Variadic.
  case Opcode::Store:
    return 2; // Value, address.
  default:
    return 2;
  }
}

bool gdp::opcodeHasDest(Opcode Op) {
  switch (Op) {
  case Opcode::Store:
  case Opcode::Br:
  case Opcode::BrCond:
  case Opcode::Ret:
    return false;
  case Opcode::Call:
    return true; // Optional in practice; Dest may still be -1.
  default:
    return true;
  }
}

bool gdp::opcodeIsMemoryAccess(Opcode Op) {
  return Op == Opcode::Load || Op == Opcode::Store;
}

bool gdp::opcodeReferencesMemory(Opcode Op) {
  return Op == Opcode::Load || Op == Opcode::Store || Op == Opcode::Malloc ||
         Op == Opcode::AddrOf;
}

bool gdp::opcodeIsTerminator(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::BrCond || Op == Opcode::Ret;
}

