//===- profile/Interpreter.h - Profiling IR interpreter ---------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct interpreter for the IR. It plays two roles:
///
///  1. **Profiler** — it records block frequencies, per-operation dynamic
///     object access counts and heap allocation sizes (the inputs the data
///     partitioner needs, paper §3.2), substituting for Trimaran's profile
///     infrastructure.
///  2. **Oracle** — the workload tests execute each kernel and check its
///     outputs against reference results, establishing that the IR programs
///     really implement the algorithms whose access patterns the
///     experiments depend on.
///
/// Values are dual-typed (every register/memory cell carries both an
/// integer and a float lane; opcodes pick the lane), which keeps the IR
/// untyped without losing numeric fidelity.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PROFILE_INTERPRETER_H
#define GDP_PROFILE_INTERPRETER_H

#include "profile/ProfileData.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gdp {

class Program;
struct ExecTrace;

/// One runtime value: an integer lane and a float lane.
struct RtValue {
  int64_t I = 0;
  double F = 0;
};

/// Outcome of one interpreter run.
struct InterpResult {
  bool Ok = false;
  std::string Error;    ///< Empty on success.
  uint64_t Steps = 0;   ///< Operations executed.
  bool HasReturn = false;
  RtValue ReturnValue;  ///< Entry function's return value if HasReturn.
};

/// Executes a program and collects profile data. Construct once per run;
/// the final memory image stays inspectable after run() for tests.
class Interpreter {
public:
  explicit Interpreter(const Program &P);

  /// Runs the entry function to completion (or error / step limit).
  InterpResult run(uint64_t MaxSteps = 200000000ULL);

  const ProfileData &getProfile() const { return Profile; }

  /// Records the dynamic block/access trace of the next run() into \p T
  /// (see profile/ExecTrace.h). Pass nullptr (the default state) to
  /// disable tracing; the disabled path does no trace work and no
  /// allocations. The trace is reset at the start of each traced run.
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

#endif // GDP_PROFILE_INTERPRETER_H
