//===- sched/ListScheduler.h - Cluster-aware VLIW scheduling ----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cluster-aware cycle scheduler for one region (basic block) and the
/// program-level cycle accounting built on it. Given a per-operation
/// cluster assignment it:
///
///  * issues each operation on a free function unit of its kind on its
///    cluster, respecting data/memory/order dependences;
///  * materializes an intercluster move for every data edge whose
///    endpoints live on different clusters (one move per (producer,
///    destination cluster), shared by all consumers) and for every cross-
///    cluster live-in value, modeling the interconnect's bandwidth
///    (issue slots per cycle) and latency;
///  * reports the block's schedule length and move count.
///
/// Program cycles are Σ_blocks length(block) × profile-frequency(block) —
/// the standard static evaluation used by the clustering literature.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SCHED_LISTSCHEDULER_H
#define GDP_SCHED_LISTSCHEDULER_H

#include "sched/BlockDFG.h"
#include "sched/ClusterAssignment.h"

#include <cstdint>
#include <vector>

namespace gdp {

class MachineModel;
class ProfileData;

/// Cycle-level schedule of one block.
struct BlockSchedule {
  unsigned Length = 0;   ///< Completion cycle of the whole block.
  unsigned NumMoves = 0; ///< Intercluster moves per block execution.
  unsigned HoistedMoves = 0; ///< Loop-invariant transfers hoisted out of
                             ///< the block (paid per loop entry).
  unsigned ReadyPeak = 0; ///< Largest ready-list population seen.
  std::vector<unsigned> IssueCycle; ///< Per local operation index.
  /// Bus issue cycle of every in-block intercluster move (live-in refills
  /// and cross-cluster data edges; hoisted transfers excluded). One entry
  /// per NumMoves, in ascending order. The trace-driven simulator
  /// replays these slots against the dynamic bus state.
  std::vector<unsigned> MoveIssue;
};

/// Schedules one block. \p ClusterOfOp is indexed by *operation id* (the
/// enclosing function's table from a ClusterAssignment).
BlockSchedule scheduleBlock(const BlockDFG &DFG, const MachineModel &MM,
                            const std::vector<int> &ClusterOfOp);

/// Program-level cycle accounting.
struct ProgramSchedule {
  uint64_t TotalCycles = 0;  ///< Σ block length × block frequency.
  uint64_t DynamicMoves = 0; ///< Σ block moves × block frequency.
  uint64_t StaticMoves = 0;  ///< Σ block moves (unweighted).
  /// Per-function, per-block schedules: Blocks[F][B]. The simulator and
  /// `gdptool schedule` replay these.
  std::vector<std::vector<BlockSchedule>> Blocks;
};

/// Schedules every block of every function of \p PA's program, over the
/// region DFGs \p PA holds, and folds in the profile.
ProgramSchedule scheduleProgram(const ProgramAnalyses &PA,
                                const ProfileData &Prof,
                                const MachineModel &MM,
                                const ClusterAssignment &CA);

} // namespace gdp

#endif // GDP_SCHED_LISTSCHEDULER_H
