//===- tests/ReferenceDefUse.cpp - Dense reaching-definitions oracle ------===//

#include "ReferenceDefUse.h"

#include "analysis/CFG.h"
#include "ir/Function.h"

#include <cassert>
#include <cstdint>

using namespace gdp;

namespace {

/// A fixed-width bitset over definition indices.
class DefBits {
public:
  explicit DefBits(unsigned NumBits = 0) : Words((NumBits + 63) / 64, 0) {}

  void set(unsigned I) { Words[I / 64] |= (1ULL << (I % 64)); }
  void reset(unsigned I) { Words[I / 64] &= ~(1ULL << (I % 64)); }
  bool test(unsigned I) const { return (Words[I / 64] >> (I % 64)) & 1ULL; }

  /// this |= Other; returns true if anything changed.
  bool unionWith(const DefBits &Other) {
    bool Changed = false;
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t New = Words[W] | Other.Words[W];
      Changed |= New != Words[W];
      Words[W] = New;
    }
    return Changed;
  }

private:
  std::vector<uint64_t> Words;
};

} // namespace

ReferenceDefUse::ReferenceDefUse(const Function &F) {
  // Parameters first, then op defs in block/position order.
  DefIdxOfOp.assign(F.getNumOpIds(), -1);
  DefIdxOfParam.resize(F.getNumParams());
  for (unsigned P = 0; P != F.getNumParams(); ++P) {
    DefIdxOfParam[P] = static_cast<int>(Defs.size());
    Defs.push_back({-(static_cast<int>(P) + 1), static_cast<int>(P)});
  }
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations())
      if (Op->hasDest()) {
        DefIdxOfOp[static_cast<unsigned>(Op->getId())] =
            static_cast<int>(Defs.size());
        Defs.push_back({Op->getId(), Op->getDest()});
      }

  unsigned NumDefs = getNumDefs();
  unsigned NumBlocks = F.getNumBlocks();

  std::vector<std::vector<unsigned>> DefsOfReg(F.getNumVRegs());
  for (unsigned D = 0; D != NumDefs; ++D)
    DefsOfReg[static_cast<unsigned>(Defs[D].Reg)].push_back(D);

  // GEN/KILL per block, one definition at a time.
  std::vector<DefBits> Gen(NumBlocks, DefBits(NumDefs));
  std::vector<DefBits> Kill(NumBlocks, DefBits(NumDefs));
  for (unsigned B = 0; B != NumBlocks; ++B) {
    for (const auto &Op : F.getBlock(B).operations()) {
      if (!Op->hasDest())
        continue;
      unsigned D =
          static_cast<unsigned>(DefIdxOfOp[static_cast<unsigned>(Op->getId())]);
      for (unsigned Other : DefsOfReg[static_cast<unsigned>(Op->getDest())]) {
        Kill[B].set(Other);
        Gen[B].reset(Other);
      }
      Kill[B].reset(D);
      Gen[B].set(D);
    }
  }

  // IN/OUT fixpoint over reverse post order, bit by bit.
  CFG Cfg(F);
  std::vector<DefBits> In(NumBlocks, DefBits(NumDefs));
  std::vector<DefBits> Out(NumBlocks, DefBits(NumDefs));
  for (unsigned P = 0; P != F.getNumParams(); ++P)
    In[0].set(static_cast<unsigned>(DefIdxOfParam[P]));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int BSigned : Cfg.reversePostOrder()) {
      unsigned B = static_cast<unsigned>(BSigned);
      for (int Pred : Cfg.predecessors(B))
        In[B].unionWith(Out[static_cast<unsigned>(Pred)]);
      DefBits NewOut = In[B];
      for (unsigned D = 0; D != NumDefs; ++D)
        if (Kill[B].test(D))
          NewOut.reset(D);
      for (unsigned D = 0; D != NumDefs; ++D)
        if (Gen[B].test(D))
          NewOut.set(D);
      Changed |= Out[B].unionWith(NewOut);
    }
  }

  // Walk each block with the full reaching set per register.
  ReachingPerUse.resize(F.getNumOpIds());
  UsesPerDefOp.resize(F.getNumOpIds());
  UsesPerParam.resize(F.getNumParams());
  for (unsigned B = 0; B != NumBlocks; ++B) {
    std::vector<std::vector<unsigned>> Current(F.getNumVRegs());
    for (unsigned D = 0; D != NumDefs; ++D)
      if (In[B].test(D))
        Current[static_cast<unsigned>(Defs[D].Reg)].push_back(D);
    for (const auto &Op : F.getBlock(B).operations()) {
      unsigned OpId = static_cast<unsigned>(Op->getId());
      auto &PerSrc = ReachingPerUse[OpId];
      PerSrc.resize(Op->getNumSrcs());
      for (unsigned S = 0, E = Op->getNumSrcs(); S != E; ++S) {
        PerSrc[S] = Current[static_cast<unsigned>(Op->getSrc(S))];
        for (unsigned D : PerSrc[S]) {
          UseSite Use{Op->getId(), static_cast<int>(S)};
          if (Defs[D].isParam())
            UsesPerParam[static_cast<unsigned>(Defs[D].paramIndex())]
                .push_back(Use);
          else
            UsesPerDefOp[static_cast<unsigned>(Defs[D].OpId)].push_back(Use);
        }
      }
      if (Op->hasDest())
        Current[static_cast<unsigned>(Op->getDest())].assign(
            1, static_cast<unsigned>(DefIdxOfOp[OpId]));
    }
  }
}

const std::vector<unsigned> &
ReferenceDefUse::defsForUse(unsigned OpId, unsigned SrcIdx) const {
  assert(OpId < ReachingPerUse.size() && "operation id out of range");
  const auto &PerSrc = ReachingPerUse[OpId];
  return SrcIdx < PerSrc.size() ? PerSrc[SrcIdx] : Empty;
}

const std::vector<ReferenceDefUse::UseSite> &
ReferenceDefUse::usesOfDef(unsigned OpId) const {
  assert(OpId < UsesPerDefOp.size() && "operation id out of range");
  return UsesPerDefOp[OpId];
}

const std::vector<ReferenceDefUse::UseSite> &
ReferenceDefUse::usesOfParam(unsigned ParamIdx) const {
  assert(ParamIdx < UsesPerParam.size() && "parameter index out of range");
  return UsesPerParam[ParamIdx];
}
