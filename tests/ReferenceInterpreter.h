//===- tests/ReferenceInterpreter.h - Interpreter oracle --------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR interpreter that profile/Interpreter's decoded loop replaced,
/// kept as its oracle. Every step walks frame -> Function -> BasicBlock ->
/// Operation, reads operands through the operation's vectors and adds each
/// access to the profile's sorted list; every call allocates its argument
/// and register vectors. Slow but obvious; tests/InterpOracleTests.cpp
/// checks that the decoded interpreter's results, profile, memory image,
/// counters and trace summary equal this one's.
///
/// It also keeps the raw dynamic trace (ExecTrace) that the simulator
/// used to read, and summarizeTrace, which reduced that trace to a
/// TraceSummary after the run. tests/ReferenceSimulator replays the raw
/// trace event by event.
///
/// The trace pairs the k-th entry of each operation's access stream with
/// the k-th execution of its block. A block re-entered by recursion while
/// an outer execution is suspended at a call breaks that pairing: the
/// outer execution's later accesses land after the inner one's. The
/// decoded interpreter, which summarizes each execution as it finishes,
/// does not misattribute them (docs/SIMULATOR.md); programs that do this
/// stay out of the equality tests.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_TESTS_REFERENCEINTERPRETER_H
#define GDP_TESTS_REFERENCEINTERPRETER_H

#include "profile/Interpreter.h"
#include "profile/ProfileData.h"
#include "profile/TraceSummary.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gdp {

class Program;

/// One interpreter run's dynamic trace: the sequence of basic-block
/// executions, plus, for every memory operation, the stream of
/// data-object ids it touched in execution order.
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

/// Summarizes \p T, recorded while interpreting \p P, in one pass over its
/// events. The k-th execution of a block takes the k-th entry of each of
/// its memory operations' access streams; a stream that holds one object
/// throughout is not read per execution. The summary's Blocks are empty
/// when \p T was not recorded against \p P (function or operation counts
/// differ). The first inconsistency between trace and program (an event
/// out of range, an access stream exhausted) is written to \p Error, if
/// given, and ends the summary there.
TraceSummary summarizeTrace(const Program &P, const ExecTrace &T,
                            std::string *Error = nullptr);

/// Executes a program and collects profile data, one operation at a time
/// through the IR. Same contract as Interpreter, with a raw trace sink.
class ReferenceInterpreter {
public:
  explicit ReferenceInterpreter(const Program &P);

  /// Runs the entry function to completion (or error / step limit).
  InterpResult run(uint64_t MaxSteps = 200000000ULL);

  const ProfileData &getProfile() const { return Profile; }

  /// Records the dynamic block/access trace of the next run() into \p T.
  /// Pass nullptr (the default state) to disable tracing. The trace is
  /// reset at the start of each traced run.
  void setTrace(ExecTrace *T) { Trace = T; }

  /// Reads element \p Index of global object \p ObjectId (integer lane).
  int64_t readGlobalInt(unsigned ObjectId, uint64_t Index) const;

  /// Number of heap regions allocated during the run.
  unsigned getNumHeapRegions() const;

private:
  struct Region {
    int ObjectId; ///< Owning global object or malloc site.
    std::vector<RtValue> Cells;
  };

  struct Frame {
    const void *Func; ///< const Function*, type-erased to keep header light.
    std::vector<RtValue> Regs;
    int BlockId = 0;
    unsigned OpIdx = 0;
    int CallerDest = -1; ///< Caller register receiving the return value.
  };

  const Program &Prog;
  std::vector<Region> Regions; ///< [0, numObjects) are the globals.
  ProfileData Profile;
  ExecTrace *Trace = nullptr; ///< Optional dynamic trace sink; null = off.

  // Address encoding: high 32 bits region index, low 32 bits element offset.
  static int64_t makeAddr(uint64_t Reg, uint64_t Off) {
    return static_cast<int64_t>((Reg << 32) | (Off & 0xffffffffULL));
  }
};

} // namespace gdp

#endif // GDP_TESTS_REFERENCEINTERPRETER_H
