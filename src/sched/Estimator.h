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
/// produces.
///
/// RHOP scores every candidate group move against it, so it comes in two
/// halves. ScheduleEstimator holds what does not depend on the assignment
/// — op ids, FU kinds, latencies, unit counts, successor and predecessor
/// arrays with per-edge base delays, and the filtered live-ins listed by
/// consumer and by producer — built once per region and never changed
/// afterwards. ScheduleEstimator::State holds the estimate of one
/// assignment: load() computes it in full, and tryMove() re-scores a group
/// move from the ops and edges the move touches. It updates the op counts
/// per (cluster, FU kind) and the number of consumers per (producer,
/// destination cluster) — a transfer exists while that number is nonzero
/// away from the producer's cluster — and recomputes start times only over
/// the move's forward cone, stopping as soon as the estimate exceeds the
/// caller's bound. undo() restores the previous estimate from a log.
/// The tables never change after construction. A State is reused across
/// regions and is not synchronized: give each thread its own.
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

/// The assignment-independent tables of one region's estimate.
class ScheduleEstimator {
public:
  /// Tables on \p A when given (heap otherwise).
  ScheduleEstimator(const BlockDFG &DFG, const MachineModel &MM,
                    support::Arena *A = nullptr);

  /// The estimate of one region under one assignment, kept up to date
  /// across group moves.
  class State {
  public:
    /// Buffers on \p A when given (heap otherwise); they grow to the
    /// largest region loaded.
    explicit State(support::Arena *A = nullptr);

    /// Computes \p Est's region in full with operations placed according
    /// to \p ClusterOfOp (indexed by operation id), which must place every
    /// region operation and every live-in producer. \p Est must outlive
    /// every later call until the next load().
    void load(const ScheduleEstimator &Est,
              const std::vector<int> &ClusterOfOp);

    /// Estimated schedule length.
    unsigned length() const { return Len; }
    /// Distinct intercluster transfers the region needs (the bus-bound
    /// numerator; also the region's static move count).
    unsigned moves() const { return Moves; }
    /// Cluster of local operation \p Local.
    unsigned clusterOf(unsigned Local) const { return Cl[Local]; }

    /// Places the distinct local operations [\p Begin, \p End) on cluster
    /// \p To. Returns false as soon as the length is known to exceed
    /// \p Bound (length() and moves() are then meaningless and undo() must
    /// follow); otherwise true, with exact length() and moves(), and
    /// either undo() or commit() must follow. The range must stay valid
    /// until then. Producers outside the region are where load() saw
    /// them.
    bool tryMove(const unsigned *Begin, const unsigned *End, unsigned To,
                 unsigned Bound);
    /// Keeps the last tryMove().
    void commit();
    /// Restores the estimate from before the last tryMove().
    void undo();

  private:
    /// The largest of a set of values and how many values reach it. A
    /// Count of 0 means every holder dropped and Max must be recounted.
    struct RunningMax {
      unsigned Max = 0;
      unsigned Count = 0;
      /// One value went from \p Old to \p New; true if Max may have
      /// changed.
      bool update(unsigned Old, unsigned New);
    };

    void place(unsigned Op, unsigned To);
    unsigned startOf(unsigned Op) const;
    unsigned resourceBound() const;
    void recountFinish();
    void recountLatestStart();

    const ScheduleEstimator *Est = nullptr;
    unsigned Len = 0;
    unsigned Moves = 0;
    RunningMax Finish; ///< Over every op: the critical path.
    /// Over every op but the last, when the last waits for all of them.
    RunningMax LatestStart;

    support::ArenaVector<unsigned> Cl;        ///< local op → cluster
    support::ArenaVector<unsigned> LiveCl;    ///< live producer → cluster
    support::ArenaVector<unsigned> KindCount; ///< [cluster * 4 + kind]
    /// [producer * clusters + cluster] → consumers on that cluster.
    /// Producers are local ops, then live producers.
    support::ArenaVector<uint32_t> UsersAt;
    support::ArenaVector<unsigned> Start; ///< local op → start time
    support::ArenaVector<uint64_t> Dirty; ///< Cone bitset, clear between
                                          ///< trials.

    // The last trial, for undo().
    const unsigned *TrialBegin = nullptr;
    unsigned TrialTo = 0;
    unsigned SavedLen = 0, SavedMoves = 0;
    RunningMax SavedFinish, SavedLatestStart;
    support::ArenaVector<unsigned> OldCl; ///< Per trial member.
    support::ArenaVector<std::pair<uint32_t, uint32_t>> StartLog;
  };

private:
  unsigned N = 0;
  unsigned NumClusters = 0;
  unsigned MoveLat = 0;
  unsigned BW = 1;
  /// The last op (a terminator) has an order edge from every other op;
  /// those edges are left out of the adjacency below.
  bool LastWaitsForAll = false;

  support::ArenaVector<unsigned> Dur;     // local op → max(1, latency)
  support::ArenaVector<unsigned> OpIds;   // local op → function-wide op id
  support::ArenaVector<uint8_t> Kind;     // local op → FU kind
  support::ArenaVector<unsigned> FUCount; // [cluster * 4 + kind] → units

  /// Flat adjacency: the edges of local op I live at [Off[I], Off[I+1]).
  /// A data edge pays a move when its endpoints are on different
  /// clusters; a predecessor edge also carries its base (same-cluster)
  /// delay.
  support::ArenaVector<uint32_t> SuccOff;
  support::ArenaVector<uint32_t> SuccTo;
  support::ArenaVector<uint8_t> SuccIsData;
  support::ArenaVector<uint32_t> PredOff;
  support::ArenaVector<uint32_t> PredFrom;
  support::ArenaVector<uint32_t> PredBase;
  support::ArenaVector<uint8_t> PredIsData;

  /// Live-ins with a real, non-hoistable producer, one "live producer"
  /// per distinct producing operation. Its transfers are counted apart
  /// from the same operation's data edges, as its value is a different
  /// iteration's. LiveKeys[LiveOff[I], LiveOff[I+1]) are the live
  /// producers local op I consumes.
  support::ArenaVector<uint32_t> LiveOff;
  support::ArenaVector<uint32_t> LiveKeys;
  support::ArenaVector<unsigned> LiveDefId; ///< live producer → op id
  /// A loop-carried producer inside the region (defined at or after its
  /// use) moves with its operation: ProducedKey[I] is the live producer
  /// local op I is, or -1, and KeyUsers[KeyUserOff[K], KeyUserOff[K+1])
  /// are the consumers of in-region live producer K.
  support::ArenaVector<int32_t> ProducedKey;
  support::ArenaVector<uint32_t> KeyUserOff;
  support::ArenaVector<uint32_t> KeyUsers;
};

} // namespace gdp

#endif // GDP_SCHED_ESTIMATOR_H
