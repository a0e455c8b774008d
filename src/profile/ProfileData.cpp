//===- profile/ProfileData.cpp - Profiling results --------------------------===//

#include "profile/ProfileData.h"

#include "ir/Program.h"

#include <algorithm>

using namespace gdp;

namespace {

/// lower_bound position of \p ObjectId in sorted access list \p L.
template <typename ListT> auto find(ListT &L, int ObjectId) {
  return std::lower_bound(L.begin(), L.end(), ObjectId,
                          [](const std::pair<int, uint64_t> &E, int Id) {
                            return E.first < Id;
                          });
}

} // namespace

ProfileData::ProfileData(const Program &P) {
  BlockFreq.resize(P.getNumFunctions());
  AccessCounts.resize(P.getNumFunctions());
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    BlockFreq[F].assign(P.getFunction(F).getNumBlocks(), 0);
    AccessCounts[F].resize(P.getFunction(F).getNumOpIds());
  }
  HeapBytes.assign(P.getNumObjects(), 0);
  HeapAllocs.assign(P.getNumObjects(), 0);
}

uint64_t ProfileData::getAccessCount(unsigned FunctionId, unsigned OpId,
                                     int ObjectId) const {
  const AccessList &L = AccessCounts[FunctionId][OpId];
  auto It = find(L, ObjectId);
  return It != L.end() && It->first == ObjectId ? It->second : 0;
}

void ProfileData::addAccess(unsigned FunctionId, unsigned OpId, int ObjectId,
                            uint64_t N) {
  AccessList &L = AccessCounts[FunctionId][OpId];
  auto It = find(L, ObjectId);
  if (It != L.end() && It->first == ObjectId)
    It->second += N;
  else
    L.insert(It, {ObjectId, N});
}

uint64_t ProfileData::getObjectAccessTotal(int ObjectId) const {
  uint64_t Total = 0;
  for (const auto &PerFunc : AccessCounts)
    for (const AccessList &L : PerFunc) {
      auto It = find(L, ObjectId);
      if (It != L.end() && It->first == ObjectId)
        Total += It->second;
    }
  return Total;
}

void ProfileData::applyHeapSizes(Program &P) const {
  for (unsigned I = 0; I != P.getNumObjects(); ++I)
    if (P.getObject(I).isHeapSite())
      P.getObject(I).setProfiledBytes(HeapBytes[I]);
}
