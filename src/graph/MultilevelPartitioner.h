//===- graph/MultilevelPartitioner.h - Multilevel k-way cut -----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch multilevel multi-constraint graph partitioner standing in
/// for METIS [14]: heavy-edge-matching coarsening, randomized greedy
/// initial partitioning (best of several seeds), and pass-based
/// Fiduccia–Mattheyses-style refinement at every uncoarsening level.
///
/// The objective matches the paper's use of METIS (§3.3.2): minimize the
/// total weight of cut edges while keeping every balance constraint within
/// a parameterized tolerance ("the memory size balance between clusters is
/// parameterized").
///
//===----------------------------------------------------------------------===//

#ifndef GDP_GRAPH_MULTILEVELPARTITIONER_H
#define GDP_GRAPH_MULTILEVELPARTITIONER_H

#include "graph/CSRGraph.h"

#include <cstdint>
#include <vector>

namespace gdp {

/// Tuning knobs for partitionGraph().
struct GraphPartitionOptions {
  /// Number of parts (clusters) to split into.
  unsigned NumParts = 2;
  /// Allowed per-constraint imbalance: part load may reach
  /// (1 + Tolerance[c]) * total[c] / NumParts. Constraints beyond the
  /// vector's size allow 0.15.
  std::vector<double> Tolerances;
  /// Optional relative capacity per part (e.g. {2, 1, 1, 1} gives part 0
  /// twice the capacity of the others). Empty = uniform. Entries beyond
  /// the vector default to 1.
  std::vector<double> PartCapacityShares;
};

/// Result of one partitioning run.
struct GraphPartition {
  std::vector<unsigned> Assignment; ///< node -> part
  uint64_t CutWeight = 0;
  std::vector<std::vector<uint64_t>> PartWeights; ///< [part][constraint]
};

/// Partitions \p G into Opt.NumParts parts. \p G is the finest level;
/// the coarser levels are built on the calling thread's scratch arena.
/// The run is deterministic: its random choices come from one fixed seed.
GraphPartition partitionGraph(const CSRGraph &G,
                              const GraphPartitionOptions &Opt);

} // namespace gdp

#endif // GDP_GRAPH_MULTILEVELPARTITIONER_H
