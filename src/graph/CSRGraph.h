//===- graph/CSRGraph.h - Compressed adjacency for partitioning -*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted undirected graph the multilevel partitioner cuts, in
/// compressed-sparse-row (CSR) form. Nodes carry a *vector* of weights
/// (one entry per balance constraint — the multi-constraint capability of
/// METIS the paper relies on: object bytes and operation counts are
/// balanced simultaneously); edges carry a single weight (communication
/// volume).
///
/// Neighbor ids and edge weights live in flat arrays (neighbor ids
/// ascending within each row) and node weights in one row-major block, so
/// the refinement loops that sweep every adjacency list many times per
/// level walk contiguous memory. Totals and the aggregate edge weight are
/// cached at build time.
///
/// Every level comes out of one row builder (collect directed slots, sort,
/// merge): the finest from a caller's node weights and edge list, each
/// coarser one from the finer CSR and a fine→coarse mapping. All storage
/// can live on a support::Arena, so a whole coarsening hierarchy costs zero
/// system-allocator calls once the thread's arena is warm.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_GRAPH_CSRGRAPH_H
#define GDP_GRAPH_CSRGRAPH_H

#include "support/Arena.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gdp {

/// Immutable cache-linear weighted undirected graph.
class CSRGraph {
public:
  /// One undirected edge {A, B} of weight W.
  struct Edge {
    unsigned A;
    unsigned B;
    uint64_t W;
  };

  /// The graph over NodeWeights.size() / NumConstraints nodes, with
  /// \p NodeWeights row-major [node][constraint] and one undirected edge
  /// per entry of \p Edges: parallel edges add up, self-edges and zero
  /// weights vanish. Storage on \p A when given (heap otherwise).
  CSRGraph(unsigned NumConstraints, const std::vector<uint64_t> &NodeWeights,
           const std::vector<Edge> &Edges, support::Arena *A = nullptr);

  /// The coarse graph induced by \p FineToCoarse over \p Fine: coarse node
  /// weights accumulate their members' weights, parallel coarse edges
  /// accumulate, self-edges vanish — the graph the edge-list constructor
  /// builds from the mapped fine edges.
  CSRGraph(const CSRGraph &Fine, const std::vector<unsigned> &FineToCoarse,
           unsigned NumCoarse, support::Arena *A = nullptr);

  unsigned getNumNodes() const { return NumNodes; }
  unsigned getNumConstraints() const { return NumC; }

  /// Pointer to the \p getNumConstraints() weights of \p Node.
  const uint64_t *nodeWeights(unsigned Node) const {
    return &NodeW[static_cast<size_t>(Node) * NumC];
  }
  uint64_t nodeWeight(unsigned Node, unsigned C) const {
    return NodeW[static_cast<size_t>(Node) * NumC + C];
  }

  /// Half-open range [edgeBegin(N), edgeEnd(N)) of edge slots for node N.
  uint32_t edgeBegin(unsigned Node) const { return Off[Node]; }
  uint32_t edgeEnd(unsigned Node) const { return Off[Node + 1]; }
  unsigned edgeTarget(uint32_t Slot) const { return Nbr[Slot]; }
  uint64_t edgeWeight(uint32_t Slot) const { return EdgeW[Slot]; }
  unsigned degree(unsigned Node) const { return Off[Node + 1] - Off[Node]; }

  /// Accumulated weight of edge {A, B}, or 0 when absent (binary search —
  /// neighbor ids are sorted within each row).
  uint64_t edgeWeightBetween(unsigned A, unsigned B) const;

  /// Sum of node weights per constraint (cached).
  const std::vector<uint64_t> &totalWeights() const { return Totals; }

  /// Sum of all edge weights, each undirected edge counted once (cached).
  uint64_t totalEdgeWeight() const { return TotalEdgeW; }

  /// Total edge weight crossing parts under \p Assignment.
  uint64_t cutWeight(const std::vector<unsigned> &Assignment) const;

private:
  /// Directed edge slots: ((from << 32) | to, weight).
  using SlotList = support::ArenaVector<std::pair<uint64_t, uint64_t>>;

  /// Fills the rows from \p Slots, which holds both directions of every
  /// edge: sorts them by (from, to) and merges duplicates, so each row
  /// comes out with ascending neighbor ids.
  void buildRows(SlotList &Slots);

  unsigned NumNodes = 0;
  unsigned NumC = 1;
  support::ArenaVector<uint32_t> Off;  ///< NumNodes + 1 row offsets.
  support::ArenaVector<uint32_t> Nbr;  ///< Neighbor ids, ascending per row.
  support::ArenaVector<uint64_t> EdgeW;
  support::ArenaVector<uint64_t> NodeW; ///< Row-major [node][constraint].
  std::vector<uint64_t> Totals; ///< Heap: exposed as std::vector by API.
  uint64_t TotalEdgeW = 0;
};

} // namespace gdp

#endif // GDP_GRAPH_CSRGRAPH_H
