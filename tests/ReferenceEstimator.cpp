//===- tests/ReferenceEstimator.cpp - Whole-region estimate oracle --------===//

#include "ReferenceEstimator.h"

#include "ir/Operation.h"
#include "machine/MachineModel.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace gdp;

ReferenceEstimator::ReferenceEstimator(const BlockDFG &DFG,
                                       const MachineModel &MM) {
  N = DFG.size();
  NumClusters = MM.getNumClusters();
  MoveLat = MM.getMoveLatency();
  BW = std::max(1u, MM.getMoveBandwidth());

  for (unsigned I = 0; I != N; ++I) {
    const Operation &Op = DFG.getOp(I);
    Latency.push_back(MM.getLatency(Op.getOpcode()));
    OpIds.push_back(static_cast<unsigned>(Op.getId()));
    Kind.push_back(static_cast<uint8_t>(Op.getFUKind()));
  }
  for (unsigned C = 0; C != NumClusters; ++C)
    for (unsigned K = 0; K != 4; ++K)
      FUCount.push_back(MM.getFUCount(C, static_cast<FUKind>(K)));

  for (const auto &Edge : DFG.edges())
    if (Edge.Kind == BlockDFG::EdgeKind::Data)
      DataEdges.push_back({Edge.From, Edge.To});
  for (const auto &LI : DFG.liveIns())
    if (LI.DefOpId >= 0 && !LI.Hoistable)
      LiveUses.push_back({LI.LocalUser, LI.DefOpId});

  Succs.resize(N);
  for (unsigned I = 0; I != N; ++I)
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
      Succs[I].push_back(
          {Edge.To, Base, Edge.Kind == BlockDFG::EdgeKind::Data});
    }
}

unsigned
ReferenceEstimator::computeMoves(const std::vector<int> &ClusterOfOp) const {
  // Distinct (producer key, dest cluster) pairs; negative keys distinguish
  // live-in producers from data-edge producers.
  std::vector<std::pair<int, int>> Transfers;
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
ReferenceEstimator::estimateWithMoves(const std::vector<int> &ClusterOfOp,
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

  // Resource bound.
  std::vector<unsigned> KindCount(NumClusters * 4, 0);
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

  // Interconnect bound.
  unsigned Moves = computeMoves(ClusterOfOp);
  MovesOut = Moves;
  unsigned BusBound = (Moves + BW - 1) / BW;

  // Critical path; program order is a topological order.
  std::vector<unsigned> Start(N, 0);
  for (const LiveUse &L : LiveUses)
    if (static_cast<unsigned>(ClusterOfOp[static_cast<unsigned>(L.DefId)]) !=
        ClusterOf(L.User))
      Start[L.User] = std::max(Start[L.User], MoveLat);
  unsigned CP = 0;
  for (unsigned I = 0; I != N; ++I) {
    unsigned CI = ClusterOf(I);
    for (const Succ &S : Succs[I]) {
      unsigned Delay = S.Base;
      if (S.IsData && ClusterOf(S.To) != CI)
        Delay += MoveLat;
      Start[S.To] = std::max(Start[S.To], Start[I] + Delay);
    }
    CP = std::max(CP, Start[I] + std::max(1u, Latency[I]));
  }

  return std::max({ResourceBound, BusBound, CP});
}
