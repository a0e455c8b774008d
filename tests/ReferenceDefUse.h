//===- tests/ReferenceDefUse.h - Dense reaching-definitions oracle -*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The straightforward reaching-definitions analysis that analysis/DefUse
/// replaced: GEN/KILL applied one definition bit at a time, and every
/// block's walk seeded with a per-register list of reaching defs built by
/// scanning all definitions. Slow (quadratic in program size) but obvious;
/// tests/DefUseOracleTests.cpp checks that DefUse answers every query
/// exactly as this does, including the order of reaching definitions.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_TESTS_REFERENCEDEFUSE_H
#define GDP_TESTS_REFERENCEDEFUSE_H

#include "analysis/DefUse.h"

#include <vector>

namespace gdp {

class Function;

/// Def-use chains for one function, computed densely.
class ReferenceDefUse {
public:
  using DefSite = DefUse::DefSite;
  using UseSite = DefUse::UseSite;

  explicit ReferenceDefUse(const Function &F);

  unsigned getNumDefs() const { return static_cast<unsigned>(Defs.size()); }
  const DefSite &getDef(unsigned DefIdx) const { return Defs[DefIdx]; }
  const std::vector<unsigned> &defsForUse(unsigned OpId,
                                          unsigned SrcIdx) const;
  const std::vector<UseSite> &usesOfDef(unsigned OpId) const;
  const std::vector<UseSite> &usesOfParam(unsigned ParamIdx) const;
  int defIndexOfOp(unsigned OpId) const { return DefIdxOfOp[OpId]; }

private:
  std::vector<DefSite> Defs;
  std::vector<int> DefIdxOfOp;
  std::vector<int> DefIdxOfParam;
  std::vector<std::vector<std::vector<unsigned>>> ReachingPerUse;
  std::vector<std::vector<UseSite>> UsesPerDefOp;
  std::vector<std::vector<UseSite>> UsesPerParam;
  std::vector<unsigned> Empty;
};

} // namespace gdp

#endif // GDP_TESTS_REFERENCEDEFUSE_H
