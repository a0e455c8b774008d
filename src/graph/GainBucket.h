//===- graph/GainBucket.h - Addressable max-gain move queue -----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The priority structure behind bucket-based FM refinement: each free
/// node holds at most one candidate move (its best destination part and
/// the cut gain of going there), and the refiner repeatedly extracts the
/// most attractive candidate, applies it, and updates the neighbors'
/// entries in place. Edge weights here are arbitrary 64-bit values, so a
/// classical array-of-buckets indexed by gain is impossible; an indexed
/// binary heap (the entries plus each node's heap position, both on the
/// run's arena) gives O(log n) insert / update / erase with no allocation
/// per entry. The order is strict and total (higher gain first, then
/// smaller destination part, then smaller node id) and a node holds at
/// most one entry, so top() is a pure function of the live entries: the
/// extraction sequence does not depend on the heap's internal layout.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_GRAPH_GAINBUCKET_H
#define GDP_GRAPH_GAINBUCKET_H

#include "support/Arena.h"

#include <cstddef>
#include <cstdint>

namespace gdp {

/// Addressable priority queue of candidate moves, one per node.
class GainBucket {
public:
  struct Entry {
    int64_t Gain;
    unsigned Part; ///< Destination part of the candidate move.
    unsigned Node;
  };

  /// Heap and position tables on \p A when given (heap memory otherwise).
  explicit GainBucket(support::Arena *A = nullptr) : Heap(A), Pos(A) {}

  /// Empties the queue and sizes the position table for \p NumNodes nodes.
  void reset(unsigned NumNodes);

  /// Inserts the candidate move of \p Node, or replaces its current one.
  void insertOrUpdate(unsigned Node, unsigned Part, int64_t Gain);

  /// Removes \p Node's candidate if present.
  void erase(unsigned Node);

  bool contains(unsigned Node) const {
    return Node < Pos.size() && Pos[Node] != Absent;
  }

  bool empty() const { return Heap.empty(); }
  size_t size() const { return Heap.size(); }

  /// Best candidate: highest gain, ties to smaller part id, then smaller
  /// node id. Precondition: !empty().
  const Entry &top() const { return Heap.front(); }

private:
  static constexpr unsigned Absent = ~0u;

  /// True when \p A is extracted before \p B.
  static bool before(const Entry &A, const Entry &B) {
    if (A.Gain != B.Gain)
      return A.Gain > B.Gain;
    if (A.Part != B.Part)
      return A.Part < B.Part;
    return A.Node < B.Node;
  }

  /// Moves \p E, which belongs at heap index \p I, up or down to its place.
  void sift(size_t I, const Entry &E);

  support::ArenaVector<Entry> Heap;   ///< Binary heap, best entry first.
  support::ArenaVector<unsigned> Pos; ///< Per-node heap index, or Absent.
};

} // namespace gdp

#endif // GDP_GRAPH_GAINBUCKET_H
