//===- analysis/PointsTo.h - Inclusion-based points-to ----------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Andersen-style (inclusion-based, flow- and context-insensitive)
/// interprocedural points-to analysis. This stands in for the
/// summary-based pointer analysis the paper uses (Nystrom et al. [17]): it
/// assigns a unique id to every static global and every static malloc()
/// call site, and computes, for every load and store, the set of data
/// objects the operation may access (paper §3.2).
///
/// The abstract locations are exactly the program's DataObjects. Pointer
/// values flow through moves, selects, integer add/sub (pointer
/// arithmetic), min/max, loads/stores of pointers kept in memory, and call
/// argument/return bindings.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_ANALYSIS_POINTSTO_H
#define GDP_ANALYSIS_POINTSTO_H

#include <vector>

namespace gdp {

class Program;

/// Solved points-to information for a whole program.
class PointsTo {
public:
  /// Builds the constraint system from \p P and solves it to a fixpoint.
  explicit PointsTo(const Program &P);

  /// Object ids register \p Reg of function \p FunctionId may point to
  /// (sorted, duplicate-free).
  const std::vector<int> &pointsTo(unsigned FunctionId, unsigned Reg) const;

  /// Object ids that may be stored *inside* object \p ObjectId (pointers
  /// kept in memory).
  const std::vector<int> &contents(unsigned ObjectId) const;

private:
  std::vector<std::vector<int>> Solution; // node -> sorted object ids
  std::vector<unsigned> RegBase;          // function id -> first reg node
  unsigned NumRegNodes = 0;

  unsigned regNode(unsigned FunctionId, unsigned Reg) const {
    return RegBase[FunctionId] + Reg;
  }
  unsigned objNode(unsigned ObjectId) const { return NumRegNodes + ObjectId; }
};

/// Runs points-to analysis on \p P and writes the resulting access sets
/// onto every memory-referencing operation:
///   Load/Store: the points-to set of the address operand;
///   Malloc:     its own call-site object;
///   AddrOf:     the referenced global.
/// Returns the number of load/store operations whose access set is empty
/// (0 for well-formed workloads; nonzero indicates an address computed from
/// no allocation, which the pipeline treats as an input error).
unsigned annotateMemoryAccesses(Program &P);

} // namespace gdp

#endif // GDP_ANALYSIS_POINTSTO_H
