//===- graph/CSRGraph.cpp - Compressed adjacency for partitioning -----------===//

#include "graph/CSRGraph.h"

#include <algorithm>
#include <cassert>

using namespace gdp;

CSRGraph::CSRGraph(unsigned NumConstraints,
                   const std::vector<uint64_t> &NodeWeights,
                   const std::vector<Edge> &Edges, support::Arena *A)
    : NumC(NumConstraints), Off(A), Nbr(A), EdgeW(A), NodeW(A) {
  assert(NumC >= 1 && NodeWeights.size() % NumC == 0 &&
         "node weights must hold NumConstraints entries per node");
  NumNodes = static_cast<unsigned>(NodeWeights.size() / NumC);
  NodeW.assign(NodeWeights.begin(), NodeWeights.end());
  Totals.assign(NumC, 0);
  for (size_t I = 0; I != NodeWeights.size(); ++I)
    Totals[I % NumC] += NodeWeights[I];

  SlotList Slots(A);
  Slots.reserve(2 * Edges.size());
  for (const Edge &E : Edges) {
    assert(E.A < NumNodes && E.B < NumNodes && "edge endpoint missing");
    if (E.A == E.B || E.W == 0)
      continue;
    Slots.push_back({(uint64_t(E.A) << 32) | E.B, E.W});
    Slots.push_back({(uint64_t(E.B) << 32) | E.A, E.W});
  }
  buildRows(Slots);
}

CSRGraph::CSRGraph(const CSRGraph &Fine,
                   const std::vector<unsigned> &FineToCoarse,
                   unsigned NumCoarse, support::Arena *A)
    : NumNodes(NumCoarse), NumC(Fine.NumC), Off(A), Nbr(A), EdgeW(A),
      NodeW(A), Totals(Fine.Totals) {
  // Coarse node weights: accumulate members (fine ids ascending).
  NodeW.assign(static_cast<size_t>(NumCoarse) * NumC, 0);
  for (unsigned N = 0; N != Fine.NumNodes; ++N) {
    size_t Row = static_cast<size_t>(FineToCoarse[N]) * NumC;
    for (unsigned C = 0; C != NumC; ++C)
      NodeW[Row + C] += Fine.nodeWeight(N, C);
  }

  // Every directed fine slot maps to a (coarse from, coarse to) slot. Both
  // directions of a fine undirected edge are present, so both coarse
  // directions accumulate the same total.
  SlotList Slots(A);
  Slots.reserve(Fine.Nbr.size());
  for (unsigned N = 0; N != Fine.NumNodes; ++N) {
    uint64_t From = FineToCoarse[N];
    for (uint32_t E = Fine.Off[N], End = Fine.Off[N + 1]; E != End; ++E) {
      uint64_t To = FineToCoarse[Fine.Nbr[E]];
      if (From == To)
        continue; // Internal to one coarse node.
      Slots.push_back({(From << 32) | To, Fine.EdgeW[E]});
    }
  }
  buildRows(Slots);
}

void CSRGraph::buildRows(SlotList &Slots) {
  std::sort(Slots.begin(), Slots.end(),
            [](const auto &L, const auto &R) { return L.first < R.first; });
  Off.assign(NumNodes + 1, 0);
  Nbr.reserve(Slots.size());
  EdgeW.reserve(Slots.size());
  for (size_t I = 0; I != Slots.size(); ++I) {
    auto [Key, W] = Slots[I];
    auto From = static_cast<unsigned>(Key >> 32);
    auto To = static_cast<unsigned>(Key & 0xffffffffu);
    if (To > From)
      TotalEdgeW += W;
    if (I != 0 && Key == Slots[I - 1].first) {
      EdgeW.back() += W; // Parallel edge.
      continue;
    }
    ++Off[From + 1];
    Nbr.push_back(To);
    EdgeW.push_back(W);
  }
  for (unsigned N = 0; N != NumNodes; ++N)
    Off[N + 1] += Off[N];
}

uint64_t CSRGraph::edgeWeightBetween(unsigned A, unsigned B) const {
  const uint32_t *Lo = Nbr.data() + Off[A];
  const uint32_t *Hi = Nbr.data() + Off[A + 1];
  const uint32_t *It = std::lower_bound(Lo, Hi, B);
  if (It == Hi || *It != B)
    return 0;
  return EdgeW[static_cast<size_t>(It - Nbr.data())];
}

uint64_t CSRGraph::cutWeight(const std::vector<unsigned> &Assignment) const {
  uint64_t Cut = 0;
  for (unsigned N = 0; N != NumNodes; ++N)
    for (uint32_t E = Off[N], End = Off[N + 1]; E != End; ++E)
      if (Nbr[E] > N && Assignment[N] != Assignment[Nbr[E]])
        Cut += EdgeW[E];
  return Cut;
}
