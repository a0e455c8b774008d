//===- sched/Estimator.h - Schedule-length estimation -----------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fast schedule-length estimator for one region under a candidate
/// cluster assignment. This is the cost model RHOP refines against (paper
/// §3.4: "schedule estimates ... without requiring the need to actually
/// schedule the code"): the maximum of
///
///  * the resource bound — ops of each FU kind per cluster over the unit
///    count;
///  * the interconnect bound — distinct intercluster transfers over the
///    bus bandwidth;
///  * the critical path, with the move latency added to every cross-
///    cluster data edge and cross-cluster live-in.
///
/// It is a lower bound on (and in practice tracks) what the list scheduler
/// produces, and is cheap enough to evaluate once per candidate move.
///
/// The estimator is the innermost loop of RHOP refinement (one call per
/// candidate group move), so the constructor front-loads everything that
/// does not depend on the assignment — op ids, FU kinds, latencies, unit
/// counts, a flat successor array with per-edge base delays, and the
/// filtered live-in list — and the queries reuse internal scratch buffers
/// instead of allocating. Queries are const but not reentrant: do not
/// share one estimator instance across threads.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SCHED_ESTIMATOR_H
#define GDP_SCHED_ESTIMATOR_H

#include "sched/BlockDFG.h"
#include "support/Arena.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace gdp {

class MachineModel;

/// Schedule-length estimator for one region.
class ScheduleEstimator {
public:
  /// Precomputed tables and scratch on \p A when given (heap otherwise).
  ScheduleEstimator(const BlockDFG &DFG, const MachineModel &MM,
                    support::Arena *A = nullptr);

  /// Estimated schedule length of the region when operations are placed
  /// according to \p ClusterOfOp (indexed by operation id). Sets
  /// \p MovesOut to the number of distinct intercluster transfers the
  /// region needs (the bus-bound numerator; also the region's static move
  /// count): the estimate counts them anyway for its interconnect bound,
  /// and RHOP's lexicographic score wants both.
  unsigned estimateWithMoves(const std::vector<int> &ClusterOfOp,
                             unsigned &MovesOut) const;

private:
  unsigned computeMoves(const std::vector<int> &ClusterOfOp) const;

  unsigned N = 0;
  unsigned NumClusters = 0;
  unsigned MoveLat = 0;
  unsigned BW = 1;

  support::ArenaVector<unsigned> Latency; // per local op
  support::ArenaVector<unsigned> OpIds;   // local op → function-wide op id
  support::ArenaVector<uint8_t> Kind;     // local op → FU kind
  support::ArenaVector<unsigned> FUCount; // [cluster * 4 + kind] → units

  /// Data edges only (the ones that can become transfers), local indices.
  struct DataEdge {
    uint32_t From, To;
  };
  support::ArenaVector<DataEdge> DataEdges;

  /// Live-ins with a real, non-hoistable producer elsewhere.
  struct LiveUse {
    uint32_t User; // local index of the consumer
    int32_t DefId; // producing operation id (≥ 0)
  };
  support::ArenaVector<LiveUse> LiveUses;

  /// Flat successor adjacency: edges of local op I live at
  /// [SuccOff[I], SuccOff[I+1]), with the assignment-independent base
  /// delay and a flag for "data edge" (pays a move when cross-cluster).
  support::ArenaVector<uint32_t> SuccOff;
  support::ArenaVector<uint32_t> SuccTo;
  support::ArenaVector<uint32_t> SuccBase;
  support::ArenaVector<uint8_t> SuccIsData;

  // Per-query scratch, reused across calls (const queries, not reentrant).
  mutable support::ArenaVector<unsigned> KindCountScratch;
  mutable support::ArenaVector<unsigned> StartScratch;
  mutable support::ArenaVector<std::pair<int, int>> MoveScratch;
};

} // namespace gdp

#endif // GDP_SCHED_ESTIMATOR_H
