//===- ir/Opcode.h - Operation opcodes and properties -----------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opcode enumeration for the virtual-register IR, together with static
/// properties (function-unit kind, operand arity, memory/branch flags) that
/// the verifier, scheduler and partitioners query.
///
/// The IR is a non-SSA three-address code over per-function virtual
/// registers. It is deliberately small: just enough to express the
/// Mediabench-style kernels the paper evaluates, to be executable by the
/// profiling interpreter, and to carry the memory-access annotations that
/// the data partitioner consumes.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_IR_OPCODE_H
#define GDP_IR_OPCODE_H

namespace gdp {

/// The kind of function unit an operation issues on. Mirrors the paper's
/// 2-cluster machine with 2 integer, 1 float, 1 memory and 1 branch unit per
/// cluster. Intercluster moves occupy the interconnect, not a cluster FU.
enum class FUKind {
  Integer,
  Float,
  Memory,
  Branch,
  Interconnect,
};

/// All IR opcodes.
enum class Opcode {
  // Integer arithmetic/logic (FUKind::Integer).
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  AShr,
  LShr,
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE,
  Min,
  Max,
  Abs,
  Select, // dest = srcs[0] ? srcs[1] : srcs[2]

  // Floating point (FUKind::Float).
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  FAbs,
  FMin,
  FMax,
  FCmpEQ,
  FCmpLT,
  FCmpLE,
  ItoF,
  FtoI,

  // Register/immediate moves (FUKind::Integer).
  MovI, // dest = Imm
  MovF, // dest = FImm
  Mov,  // dest = srcs[0]

  // Memory (FUKind::Memory). Addresses are in units of elements; Imm holds
  // a constant element offset added to the address operand.
  AddrOf, // dest = address of data object #Imm (FUKind::Integer)
  Load,   // dest = mem[srcs[0] + Imm]
  Store,  // mem[srcs[1] + Imm] = srcs[0]
  Malloc, // dest = fresh allocation of srcs[0] elements (site MallocSiteId)

  // Control flow (FUKind::Branch).
  Br,     // goto Target0
  BrCond, // if srcs[0] != 0 goto Target0 else Target1
  Call,   // dest? = call #CalleeId(srcs...)
  Ret,    // return srcs[0] if present

  // Intercluster copy (FUKind::Interconnect). Same value semantics as Mov;
  // materialized by the scheduler, never present in source IR.
  ICMove,
};

/// Returns a stable mnemonic for \p Op (e.g. "add", "ld", "br").
const char *opcodeName(Opcode Op);

/// Returns the function-unit kind \p Op issues on.
FUKind opcodeFUKind(Opcode Op);

/// Returns the number of register source operands \p Op takes, or -1 for
/// variadic opcodes (Call, Ret).
int opcodeNumSrcs(Opcode Op);

/// True for opcodes that produce a register result.
bool opcodeHasDest(Opcode Op);

/// True for Load and Store — the operations the data partitioner pins to
/// the home cluster of the objects they access.
bool opcodeIsMemoryAccess(Opcode Op);

/// True for operations that reference data objects (Load, Store, Malloc,
/// AddrOf) and therefore carry points-to access sets.
bool opcodeReferencesMemory(Opcode Op);

/// True for block terminators (Br, BrCond, Ret).
bool opcodeIsTerminator(Opcode Op);

} // namespace gdp

#endif // GDP_IR_OPCODE_H
