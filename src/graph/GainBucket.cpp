//===- graph/GainBucket.cpp - Addressable max-gain move queue ---------------===//

#include "graph/GainBucket.h"

#include <cassert>

using namespace gdp;

void GainBucket::reset(unsigned NumNodes) {
  Heap.clear();
  Heap.reserve(NumNodes);
  Pos.assign(NumNodes, Absent);
}

void GainBucket::sift(size_t I, const Entry &E) {
  // Up while E beats its parent.
  while (I > 0) {
    size_t Parent = (I - 1) / 2;
    if (!before(E, Heap[Parent]))
      break;
    Heap[I] = Heap[Parent];
    Pos[Heap[I].Node] = static_cast<unsigned>(I);
    I = Parent;
  }
  // Down while a child beats E.
  for (size_t N = Heap.size();;) {
    size_t Child = 2 * I + 1;
    if (Child >= N)
      break;
    if (Child + 1 < N && before(Heap[Child + 1], Heap[Child]))
      ++Child;
    if (!before(Heap[Child], E))
      break;
    Heap[I] = Heap[Child];
    Pos[Heap[I].Node] = static_cast<unsigned>(I);
    I = Child;
  }
  Heap[I] = E;
  Pos[E.Node] = static_cast<unsigned>(I);
}

void GainBucket::insertOrUpdate(unsigned Node, unsigned Part, int64_t Gain) {
  assert(Node < Pos.size() && "node beyond reset() size");
  Entry E{Gain, Part, Node};
  if (Pos[Node] == Absent) {
    Heap.push_back(E);
    sift(Heap.size() - 1, E);
    return;
  }
  const Entry &Old = Heap[Pos[Node]];
  if (Old.Gain == Gain && Old.Part == Part)
    return;
  sift(Pos[Node], E);
}

void GainBucket::erase(unsigned Node) {
  assert(Node < Pos.size() && "node beyond reset() size");
  unsigned I = Pos[Node];
  if (I == Absent)
    return;
  Pos[Node] = Absent;
  Entry Last = Heap.back();
  Heap.pop_back();
  if (I < Heap.size())
    sift(I, Last);
}
