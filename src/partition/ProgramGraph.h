//===- partition/ProgramGraph.h - Program-level data-flow graph -*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program-level data-flow graph of paper §3.3: one node per operation
/// across the whole application, edges for data-dependent register flow
/// (weighted by profile frequency — the expected communication volume if
/// the edge were cut), plus call-boundary edges binding call sites to
/// callee parameter uses and return values. Memory nodes carry the ids of
/// the data objects they may access. The flow and parameter-use edges come
/// from the def-use pairs the analysis bundle recorded (sched/BlockDFG.h).
///
/// "This graph is created to generally model the computation patterns that
///  need to be mapped to clusters. The only information recorded about the
///  operations are the data-dependent flow edges."
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PARTITION_PROGRAMGRAPH_H
#define GDP_PARTITION_PROGRAMGRAPH_H

#include <cstdint>
#include <vector>

namespace gdp {

class Operation;
class ProfileData;
class ProgramAnalyses;

/// Whole-program operation graph for the first-pass data partitioner.
class ProgramGraph {
public:
  ProgramGraph(const ProgramAnalyses &PA, const ProfileData &Prof);

  unsigned getNumNodes() const { return static_cast<unsigned>(Ops.size()); }

  /// Dense node id of operation \p OpId in function \p FunctionId.
  unsigned nodeOf(unsigned FunctionId, unsigned OpId) const {
    return FuncBase[FunctionId] + OpId;
  }
  /// Inverse mapping: (function id, op id) of a node.
  std::pair<unsigned, unsigned> funcOpOf(unsigned Node) const;

  /// The operation behind a node (null for id slots with no operation).
  const Operation *getOp(unsigned Node) const { return Ops[Node]; }

  struct Edge {
    unsigned A;
    unsigned B;
    uint64_t W;
  };
  const std::vector<Edge> &edges() const { return Edges; }

  /// Execution count of the node's block (nodes in never-executed blocks
  /// report 0).
  uint64_t freqOf(unsigned Node) const { return Freq[Node]; }

private:
  std::vector<const Operation *> Ops; // node -> operation
  std::vector<unsigned> FuncBase;     // function -> first node id
  std::vector<uint64_t> Freq;         // node -> block frequency
  std::vector<Edge> Edges;
};

} // namespace gdp

#endif // GDP_PARTITION_PROGRAMGRAPH_H
