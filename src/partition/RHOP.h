//===- partition/RHOP.h - Region-level operation partitioning ---*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second-pass computation partitioner: an implementation of
/// Region-based Hierarchical Operation Partitioning (RHOP, Chu et al.
/// PLDI'03) extended, as in the paper (§3.4), to honor data-object home
/// clusters: memory operations that are *locked* (pre-assigned to the home
/// cluster of the object they access) never move, and the refinement
/// optimizes the remaining operations around them.
///
/// Per region (basic block) it:
///  1. computes ASAP/ALAP slack and weights data edges inversely to slack
///     (low slack ⇒ critical ⇒ high weight);
///  2. coarsens operations by repeated heaviest-edge matching, grouping
///     each node at most once per stage and never fusing operations locked
///     to different clusters;
///  3. walks the coarsening levels back down, at each level greedily
///     moving groups across clusters when the schedule-length estimate
///     (see sched/Estimator.h) improves, with ties broken toward better
///     operation balance.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PARTITION_RHOP_H
#define GDP_PARTITION_RHOP_H

#include "partition/DataPlacement.h"
#include "sched/BlockDFG.h"
#include "sched/ClusterAssignment.h"

namespace gdp {

class MachineModel;
class ProfileData;

/// Partitions every operation of \p PA's program across the clusters of
/// \p MM, over the region DFGs \p PA holds (sched/BlockDFG.h).
///
/// \param Locks optional per-function, per-operation pre-assignments
///        (memory operations pinned to object home clusters); pass null
///        for the unified-memory mode where every operation is free.
ClusterAssignment runRHOP(const ProgramAnalyses &PA, const ProfileData &Prof,
                          const MachineModel &MM, const LockMap *Locks);

} // namespace gdp

#endif // GDP_PARTITION_RHOP_H
