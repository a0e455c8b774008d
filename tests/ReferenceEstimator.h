//===- tests/ReferenceEstimator.h - Whole-region estimate oracle -*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-region schedule-length estimate that sched/Estimator's
/// incremental State replaced: every query recounts the ops per (cluster,
/// FU kind), collects every cross-cluster transfer and sorts and
/// de-duplicates them, and recomputes the whole critical path. Linear in
/// the region per query but obvious; tests/EstimatorOracleTests.cpp checks
/// that the incremental estimate answers every step of a move sequence
/// exactly as this does.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_TESTS_REFERENCEESTIMATOR_H
#define GDP_TESTS_REFERENCEESTIMATOR_H

#include "sched/BlockDFG.h"

#include <cstdint>
#include <vector>

namespace gdp {

class MachineModel;

/// Schedule-length estimate of one region, recomputed per query.
class ReferenceEstimator {
public:
  ReferenceEstimator(const BlockDFG &DFG, const MachineModel &MM);

  /// Estimated schedule length of the region when operations are placed
  /// according to \p ClusterOfOp (indexed by operation id); sets
  /// \p MovesOut to the number of distinct intercluster transfers.
  unsigned estimateWithMoves(const std::vector<int> &ClusterOfOp,
                             unsigned &MovesOut) const;

private:
  unsigned computeMoves(const std::vector<int> &ClusterOfOp) const;

  unsigned N = 0;
  unsigned NumClusters = 0;
  unsigned MoveLat = 0;
  unsigned BW = 1;

  std::vector<unsigned> Latency; // per local op
  std::vector<unsigned> OpIds;   // local op → function-wide op id
  std::vector<uint8_t> Kind;     // local op → FU kind
  std::vector<unsigned> FUCount; // [cluster * 4 + kind] → units

  struct DataEdge {
    uint32_t From, To;
  };
  std::vector<DataEdge> DataEdges;

  /// Live-ins with a real, non-hoistable producer elsewhere.
  struct LiveUse {
    uint32_t User; // local index of the consumer
    int32_t DefId; // producing operation id (≥ 0)
  };
  std::vector<LiveUse> LiveUses;

  /// Successor adjacency with the assignment-independent base delay and a
  /// flag for "data edge" (pays a move when cross-cluster).
  struct Succ {
    uint32_t To;
    uint32_t Base;
    bool IsData;
  };
  std::vector<std::vector<Succ>> Succs;
};

} // namespace gdp

#endif // GDP_TESTS_REFERENCEESTIMATOR_H
