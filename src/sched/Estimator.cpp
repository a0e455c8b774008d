//===- sched/Estimator.cpp - Schedule-length estimation ---------------------===//

#include "sched/Estimator.h"

#include "ir/Operation.h"
#include "machine/MachineModel.h"

#include <algorithm>
#include <cassert>

using namespace gdp;

ScheduleEstimator::ScheduleEstimator(const BlockDFG &DFG,
                                     const MachineModel &MM,
                                     support::Arena *A)
    : Latency(A), OpIds(A), Kind(A), FUCount(A), DataEdges(A), LiveUses(A),
      SuccOff(A), SuccTo(A), SuccBase(A), SuccIsData(A), KindCountScratch(A),
      StartScratch(A), MoveScratch(A) {
  N = DFG.size();
  NumClusters = MM.getNumClusters();
  MoveLat = MM.getMoveLatency();
  BW = std::max(1u, MM.getMoveBandwidth());

  Latency.resize(N);
  OpIds.resize(N);
  Kind.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    const Operation &Op = DFG.getOp(I);
    Latency[I] = MM.getLatency(Op.getOpcode());
    OpIds[I] = static_cast<unsigned>(Op.getId());
    Kind[I] = static_cast<uint8_t>(Op.getFUKind());
  }

  FUCount.resize(NumClusters * 4);
  for (unsigned C = 0; C != NumClusters; ++C)
    for (unsigned K = 0; K != 4; ++K)
      FUCount[C * 4 + K] = MM.getFUCount(C, static_cast<FUKind>(K));

  for (const auto &Edge : DFG.edges())
    if (Edge.Kind == BlockDFG::EdgeKind::Data)
      DataEdges.push_back({Edge.From, Edge.To});

  for (const auto &LI : DFG.liveIns()) {
    if (LI.DefOpId < 0 || LI.Hoistable)
      continue; // Hoisted transfers are paid per loop entry, not here.
    LiveUses.push_back({LI.LocalUser, LI.DefOpId});
  }

  // Flatten the successor lists with their base (same-cluster) delays.
  SuccOff.resize(N + 1, 0);
  SuccTo.reserve(DFG.edges().size());
  SuccBase.reserve(DFG.edges().size());
  SuccIsData.reserve(DFG.edges().size());
  for (unsigned I = 0; I != N; ++I) {
    SuccOff[I] = static_cast<uint32_t>(SuccTo.size());
    for (unsigned E : DFG.succs(I)) {
      const BlockDFG::Edge &Edge = DFG.edges()[E];
      unsigned Base = 0;
      switch (Edge.Kind) {
      case BlockDFG::EdgeKind::Data:
        Base = Latency[I];
        break;
      case BlockDFG::EdgeKind::Mem:
        Base = 1;
        break;
      case BlockDFG::EdgeKind::Order:
        Base = 0;
        break;
      }
      SuccTo.push_back(Edge.To);
      SuccBase.push_back(Base);
      SuccIsData.push_back(Edge.Kind == BlockDFG::EdgeKind::Data);
    }
  }
  SuccOff[N] = static_cast<uint32_t>(SuccTo.size());

  MoveScratch.reserve(DataEdges.size() + LiveUses.size());
  StartScratch.reserve(N);
  KindCountScratch.reserve(NumClusters * 4);
}

unsigned
ScheduleEstimator::computeMoves(const std::vector<int> &ClusterOfOp) const {
  // Distinct (producer key, dest cluster) pairs; negative keys distinguish
  // external producers from local ones. Collect-sort-unique matches the
  // set semantics without per-call node allocation.
  auto &Transfers = MoveScratch;
  Transfers.clear();
  for (const DataEdge &E : DataEdges) {
    int CF = ClusterOfOp[OpIds[E.From]], CT = ClusterOfOp[OpIds[E.To]];
    if (CF != CT)
      Transfers.push_back({static_cast<int>(E.From), CT});
  }
  for (const LiveUse &L : LiveUses) {
    int DefCluster = ClusterOfOp[static_cast<unsigned>(L.DefId)];
    int UserCluster = ClusterOfOp[OpIds[L.User]];
    if (DefCluster != UserCluster)
      Transfers.push_back({-(L.DefId + 2), UserCluster});
  }
  std::sort(Transfers.begin(), Transfers.end());
  Transfers.erase(std::unique(Transfers.begin(), Transfers.end()),
                  Transfers.end());
  return static_cast<unsigned>(Transfers.size());
}

unsigned
ScheduleEstimator::estimateWithMoves(const std::vector<int> &ClusterOfOp,
                                     unsigned &MovesOut) const {
  if (N == 0) {
    MovesOut = 0;
    return 0;
  }
  auto ClusterOf = [&](unsigned Local) {
    int C = ClusterOfOp[OpIds[Local]];
    assert(C >= 0 && "estimator needs a complete assignment");
    return static_cast<unsigned>(C);
  };

  // --- Resource bound.
  auto &KindCount = KindCountScratch;
  KindCount.assign(NumClusters * 4, 0);
  for (unsigned I = 0; I != N; ++I)
    ++KindCount[ClusterOf(I) * 4 + Kind[I]];
  unsigned ResourceBound = 0;
  for (unsigned S = 0; S != NumClusters * 4; ++S) {
    if (KindCount[S] == 0)
      continue;
    unsigned Units = FUCount[S];
    assert(Units > 0 && "operations assigned to cluster without units");
    ResourceBound = std::max(ResourceBound, (KindCount[S] + Units - 1) / Units);
  }

  // --- Interconnect bound.
  unsigned Moves = computeMoves(ClusterOfOp);
  MovesOut = Moves;
  unsigned BusBound = (Moves + BW - 1) / BW;

  // --- Critical path. Program order is a topological order (all region
  // edges point forward).
  auto &Start = StartScratch;
  Start.assign(N, 0);
  for (const LiveUse &L : LiveUses)
    if (static_cast<unsigned>(ClusterOfOp[static_cast<unsigned>(L.DefId)]) !=
        ClusterOf(L.User))
      Start[L.User] = std::max(Start[L.User], MoveLat);
  unsigned CP = 0;
  for (unsigned I = 0; I != N; ++I) {
    unsigned CI = ClusterOf(I);
    unsigned SI = Start[I];
    for (uint32_t E = SuccOff[I], End = SuccOff[I + 1]; E != End; ++E) {
      unsigned Delay = SuccBase[E];
      if (SuccIsData[E] && ClusterOf(SuccTo[E]) != CI)
        Delay += MoveLat;
      unsigned To = SuccTo[E];
      Start[To] = std::max(Start[To], SI + Delay);
    }
    CP = std::max(CP, SI + std::max(1u, Latency[I]));
  }

  return std::max({ResourceBound, BusBound, CP});
}
