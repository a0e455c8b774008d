//===- profile/Interpreter.h - Profiling IR interpreter ---------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interpreter for the IR. It plays two roles:
///
///  1. **Profiler** — it records block frequencies, per-operation dynamic
///     object access counts and heap allocation sizes (the inputs the data
///     partitioner needs, paper §3.2), substituting for Trimaran's profile
///     infrastructure, and, on request, the per-block execution summary
///     the cycle simulator replays (profile/TraceSummary.h).
///  2. **Oracle** — the workload tests execute each kernel and check its
///     outputs against reference results, establishing that the IR programs
///     really implement the algorithms whose access patterns the
///     experiments depend on.
///
/// Values are dual-typed (every register/memory cell carries both an
/// integer and a float lane; opcodes pick the lane), which keeps the IR
/// untyped without losing numeric fidelity.
///
/// Each run lowers the program into a flat decoded form (one fixed-size
/// record per operation) and interprets that; the form lives for the run
/// only, since transforms may change the program between runs.
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
struct TraceSummary;

/// One runtime value: an integer lane and a float lane.
struct RtValue {
  int64_t I = 0;
  double F = 0;
};

/// The integer lane of float value \p V: \p V truncated toward zero, or
/// INT64_MIN when \p V is NaN or its truncation lies outside int64_t (what
/// x86's conversion yields; a plain cast would be undefined behaviour).
inline int64_t floatToIntLane(double V) {
  return V >= -0x1p63 && V < 0x1p63 ? static_cast<int64_t>(V) : INT64_MIN;
}

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
  /// Moves the profile out; getProfile() is empty until the next run().
  ProfileData takeProfile() { return std::move(Profile); }

  /// Builds the summary of the next run()'s block executions into \p S
  /// (profile/TraceSummary.h), counting each execution when it finishes.
  /// Pass nullptr (the default state) to disable it; the disabled path
  /// does no summary work and no allocations for it. \p S is reset at the
  /// start of each run and is complete only when the run succeeds.
  void setSummary(TraceSummary *S) { Summary = S; }

  /// Reads element \p Index of global object \p ObjectId (integer lane).
  int64_t readGlobalInt(unsigned ObjectId, uint64_t Index) const;

  /// Number of heap regions allocated during the run.
  unsigned getNumHeapRegions() const;

private:
  struct Region {
    int ObjectId; ///< Owning global object or malloc site.
    std::vector<RtValue> Cells;
  };

  template <bool Summarize> InterpResult execute(uint64_t MaxSteps);

  const Program &Prog;
  std::vector<Region> Regions; ///< [0, numObjects) are the globals.
  ProfileData Profile;
  TraceSummary *Summary = nullptr; ///< Optional summary sink; null = off.
};

} // namespace gdp

#endif // GDP_PROFILE_INTERPRETER_H
