//===- partition/GlobalDataPartitioner.h - GDP first pass -------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first pass of Global Data Partitioning (paper §3.3): build the
/// program-level data-flow graph, coarsen it with access-pattern merges,
/// and hand the merged graph to the multilevel multi-constraint graph
/// partitioner (our METIS substitute) with node weights ⟨object bytes,
/// operation count⟩. The resulting part of each group becomes the home
/// cluster of every data object in it.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PARTITION_GLOBALDATAPARTITIONER_H
#define GDP_PARTITION_GLOBALDATAPARTITIONER_H

#include "partition/AccessMerge.h"
#include "partition/DataPlacement.h"
#include "support/Status.h"

#include <cstdint>
#include <vector>

namespace gdp {

class ProfileData;
class ProgramAnalyses;

/// Tuning knobs for the data-partitioning pass.
struct GDPOptions {
  /// Allowed imbalance of per-cluster data bytes (the paper's
  /// parameterized "memory size balance between clusters").
  double MemBalanceTolerance = 0.125;
  /// Absolute data-memory capacity per cluster in bytes. The balance
  /// constraint exists so the data fits each cluster's local memory; when
  /// the program's total footprint is far below NumClusters × capacity
  /// the effective tolerance is relaxed up to the point where a single
  /// cluster could hold everything (capacity-aware balance). 0 = capacity
  /// unknown: MemBalanceTolerance is applied as-is (pure relative
  /// balance; the historic behaviour and what abl_balance sweeps).
  uint64_t MemCapacityBytes = 0;
  MergePolicy Policy = MergePolicy::AccessPattern;
  /// Relative memory capacity per cluster for heterogeneous machines
  /// (empty = uniform). The pipeline fills this from the machine's
  /// per-cluster memory-unit counts.
  std::vector<double> ClusterCapacityShares;

  bool operator==(const GDPOptions &) const = default;
};

/// Result of the data-partitioning pass.
struct GDPResult {
  DataPlacement Placement;
  uint64_t CutWeight = 0;   ///< Flow volume crossing clusters in the model.
  unsigned NumGroups = 0;   ///< Coarsened node count handed to the cutter.
  /// False when the pass produced no usable placement: MemCapacityBytes
  /// is set, the cut leaves some cluster over capacity, and a fitting
  /// assignment could exist (total footprint ≤ NumClusters × capacity).
  /// The pipeline's degradation chain (docs/ROBUSTNESS.md) takes over; it
  /// also builds an infeasible result when its "graph.coarsen" fault site
  /// fires. When the footprint itself exceeds total memory no assignment
  /// can fit, so the result stays feasible with a warning diagnostic —
  /// capacity is advisory then.
  bool Feasible = true;
  /// Diagnostics explaining infeasibility (and capacity warnings).
  std::vector<support::Diag> Diags;
};

/// Runs the first pass on \p PA's program (which must already carry memory
/// access annotations) using \p Prof for edge weights, heap sizes and
/// access counts.
GDPResult runGlobalDataPartitioning(const ProgramAnalyses &PA,
                                    const ProfileData &Prof,
                                    unsigned NumClusters,
                                    const GDPOptions &Opt = GDPOptions());

} // namespace gdp

#endif // GDP_PARTITION_GLOBALDATAPARTITIONER_H
