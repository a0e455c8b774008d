//===- graph/PartitionGraph.h - Weighted undirected graph -------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted undirected graph the multilevel partitioner operates on.
/// Nodes carry a *vector* of weights (one entry per balance constraint —
/// the multi-constraint capability of METIS the paper relies on: object
/// bytes and operation counts are balanced simultaneously); edges carry a
/// single weight (communication volume).
///
/// Adjacency is a sorted flat vector per node (neighbor id ascending, the
/// same deterministic iteration order the old per-node std::map gave),
/// accumulated in place on insert — construction-time convenience without
/// the per-edge heap node and pointer chase of a map.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_GRAPH_PARTITIONGRAPH_H
#define GDP_GRAPH_PARTITIONGRAPH_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace gdp {

/// A weighted undirected multigraph (parallel edges accumulate).
class PartitionGraph {
public:
  /// One node's neighbors: (neighbor id, accumulated weight), ascending
  /// by neighbor id.
  using EdgeList = std::vector<std::pair<unsigned, uint64_t>>;

  explicit PartitionGraph(unsigned NumConstraints = 1)
      : NumConstraints(NumConstraints) {
    assert(NumConstraints >= 1 && "need at least one balance constraint");
  }

  unsigned getNumConstraints() const { return NumConstraints; }
  unsigned getNumNodes() const {
    return static_cast<unsigned>(NodeWeights.size());
  }

  /// Adds a node with the given per-constraint weights (must have
  /// getNumConstraints() entries); returns its id.
  unsigned addNode(std::vector<uint64_t> Weights);

  const std::vector<uint64_t> &getNodeWeights(unsigned Node) const {
    assert(Node < getNumNodes() && "node out of range");
    return NodeWeights[Node];
  }

  /// Adds (or accumulates onto) the undirected edge {A, B}. Self-edges are
  /// ignored; zero weights are ignored.
  void addEdge(unsigned A, unsigned B, uint64_t W);

  /// Neighbors of \p Node with accumulated edge weights, ascending by
  /// neighbor id (deterministic iteration order).
  const EdgeList &neighbors(unsigned Node) const {
    assert(Node < getNumNodes() && "node out of range");
    return Adj[Node];
  }

  /// Accumulated weight of edge {A, B}, or 0 when absent.
  uint64_t edgeWeight(unsigned A, unsigned B) const;

  /// Sum of node weights per constraint.
  std::vector<uint64_t> totalWeights() const;

  /// Sum of all edge weights (each undirected edge counted once).
  uint64_t totalEdgeWeight() const;

  /// Total edge weight crossing parts under \p Assignment.
  uint64_t cutWeight(const std::vector<unsigned> &Assignment) const;

private:
  unsigned NumConstraints;
  std::vector<std::vector<uint64_t>> NodeWeights;
  std::vector<EdgeList> Adj;
};

} // namespace gdp

#endif // GDP_GRAPH_PARTITIONGRAPH_H
