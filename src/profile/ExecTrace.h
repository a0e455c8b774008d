//===- profile/ExecTrace.h - Dynamic execution trace ------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic trace an interpreter run can optionally record for the
/// cycle-level simulator (src/sim): the sequence of basic-block executions,
/// plus — for every memory operation — the stream of data-object ids it
/// touched, in execution order.
///
/// The two parts line up by construction: a memory operation executes
/// exactly once per execution of its block (blocks are straight-line), and
/// block executions of one block occur in trace order, so the k-th entry of
/// an operation's access stream belongs to the k-th trace event of its
/// block. This factored encoding stays compact (one 32-bit object id per
/// dynamic access, no per-access position) and survives call interleaving:
/// a Call suspends the caller's block mid-flight, but the caller's later
/// accesses still append to *its* operations' streams in the right order.
///
/// Recording is opt-in (Interpreter::setTrace). A null trace pointer is the
/// contract for "disabled": the interpreter then performs no trace work and
/// no allocations (tested in SimTests.cpp).
///
/// The simulator does not read the trace itself but its TraceSummary: per
/// block, the distinct executions and how often each occurred
/// (docs/SIMULATOR.md explains why one replay per distinct execution is
/// exact). prepareProgram summarizes the trace once and keeps only the
/// summary.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PROFILE_EXECTRACE_H
#define GDP_PROFILE_EXECTRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace gdp {

class Program;

/// One interpreter run's dynamic trace (see file comment for the format).
struct ExecTrace {
  /// One basic-block execution.
  struct BlockEvent {
    uint32_t Func;
    uint32_t Block;
  };

  /// Every block execution, in dynamic order. Mirrors exactly the
  /// profile's block-frequency increments: count(F, B) here equals
  /// ProfileData::getBlockFreq(F, B) of the same run.
  std::vector<BlockEvent> Blocks;

  /// AccessObj[F][OpId] — the data-object ids operation (F, OpId) accessed,
  /// one per execution, in execution order. Heap accesses record the
  /// malloc *site's* object id (the id data placement assigns homes to).
  /// Empty for non-memory operations.
  std::vector<std::vector<std::vector<int32_t>>> AccessObj;

  /// Clears the trace and sizes AccessObj for \p P. The interpreter calls
  /// this at the start of a traced run.
  void reset(const Program &P);

  uint64_t numBlockEvents() const { return Blocks.size(); }
  uint64_t numAccessEvents() const;
};

/// A trace reduced to what the simulator's replay of one block execution
/// depends on besides the schedule: which block of the same function id
/// executed last, and which objects the block's memory operations touched.
/// Executions of a block that agree on both are one variant with a count.
struct TraceSummary {
  /// One distinct execution of a block and how often it occurred.
  struct Variant {
    /// The block of the same function id that executed last before this
    /// execution, or -1 when this is block 0 (a fresh invocation) or no
    /// block of the function ran before: the simulator's loop-entry rule
    /// decides from it whether hoisted transfers fire.
    int32_t Pred;
    uint64_t Count;
  };

  /// The distinct executions of one block, in order of first occurrence.
  struct Block {
    uint32_t NumMemOps = 0; ///< Memory operations of the block.
    std::vector<Variant> Variants;
    /// NumMemOps object ids per variant, variant after variant: the
    /// object each memory operation touched, in program order.
    std::vector<int32_t> Objects;

    const int32_t *objectsOf(size_t V) const {
      return Objects.data() + V * NumMemOps;
    }
  };

  /// Blocks[F][B]. Empty when the trace was not recorded against the
  /// program (its function or operation counts differ).
  std::vector<std::vector<Block>> Blocks;
  /// The first inconsistency between the trace and the program: an event
  /// out of range or an access stream exhausted. Empty when there is none.
  std::string Error;

  uint64_t numBlockEvents() const;
};

/// Summarizes \p T, recorded while interpreting \p P, in one pass over its
/// events. The k-th execution of a block takes the k-th entry of each of
/// its memory operations' access streams; a stream that holds one object
/// throughout is not read per execution.
TraceSummary summarizeTrace(const Program &P, const ExecTrace &T);

} // namespace gdp

#endif // GDP_PROFILE_EXECTRACE_H
