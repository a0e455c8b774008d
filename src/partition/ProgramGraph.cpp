//===- partition/ProgramGraph.cpp - Program-level data-flow graph -----------===//

#include "partition/ProgramGraph.h"

#include "analysis/DefUse.h"
#include "ir/Program.h"
#include "profile/ProfileData.h"

#include <cassert>

using namespace gdp;

ProgramGraph::ProgramGraph(const Program &P, const ProfileData &Prof) {
  // --- Node layout: one slot per op id, functions concatenated.
  FuncBase.resize(P.getNumFunctions());
  unsigned Total = 0;
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    FuncBase[F] = Total;
    Total += P.getFunction(F).getNumOpIds();
  }
  Ops.assign(Total, nullptr);
  Freq.assign(Total, 0);

  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    for (const auto &BB : Fn.blocks()) {
      uint64_t BF = Prof.getBlockFreq(F, static_cast<unsigned>(BB->getId()));
      for (const auto &Op : BB->operations()) {
        unsigned Node = nodeOf(F, static_cast<unsigned>(Op->getId()));
        Ops[Node] = Op.get();
        Freq[Node] = BF;
      }
    }
  }

  // Def-use chains of every function, built once: the flow edges read the
  // function's own and the call edges its callees'.
  std::vector<DefUse> DUs;
  DUs.reserve(P.getNumFunctions());
  for (unsigned F = 0; F != P.getNumFunctions(); ++F)
    DUs.emplace_back(P.getFunction(F));

  // --- Register-flow edges from def-use chains, weighted by the use
  // block's execution frequency (at least 1 so cold code still coheres).
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    const DefUse &DU = DUs[F];
    for (const auto &BB : Fn.blocks()) {
      for (const auto &Op : BB->operations()) {
        unsigned UseId = static_cast<unsigned>(Op->getId());
        uint64_t W = std::max<uint64_t>(
            1, Prof.getBlockFreq(F, static_cast<unsigned>(BB->getId())));
        for (unsigned S = 0, E = Op->getNumSrcs(); S != E; ++S)
          for (unsigned DefIdx : DU.defsForUse(UseId, S)) {
            const DefUse::DefSite &Def = DU.getDef(DefIdx);
            if (Def.isParam())
              continue;
            Edges.push_back({nodeOf(F, static_cast<unsigned>(Def.OpId)),
                             nodeOf(F, UseId), W});
          }
      }
    }
  }

  // --- Call-boundary edges: call node <-> callee parameter uses and
  // return-value producers.
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    for (const auto &BB : Fn.blocks()) {
      for (const auto &Op : BB->operations()) {
        if (Op->getOpcode() != Opcode::Call)
          continue;
        unsigned CallNode = nodeOf(F, static_cast<unsigned>(Op->getId()));
        uint64_t W = std::max<uint64_t>(
            1, Prof.getBlockFreq(F, static_cast<unsigned>(BB->getId())));
        unsigned CalleeId = static_cast<unsigned>(Op->getCallee());
        const Function &Callee = P.getFunction(CalleeId);
        for (unsigned Param = 0; Param != Callee.getNumParams(); ++Param)
          for (const auto &Use : DUs[CalleeId].usesOfParam(Param))
            Edges.push_back(
                {CallNode,
                 nodeOf(CalleeId, static_cast<unsigned>(Use.OpId)), W});
        for (const auto &CB : Callee.blocks()) {
          const Operation *Term = CB->getTerminator();
          if (Term && Term->getOpcode() == Opcode::Ret &&
              Term->getNumSrcs() > 0)
            Edges.push_back(
                {nodeOf(CalleeId, static_cast<unsigned>(Term->getId())),
                 CallNode, W});
        }
      }
    }
  }
}

std::pair<unsigned, unsigned> ProgramGraph::funcOpOf(unsigned Node) const {
  assert(Node < getNumNodes() && "node out of range");
  unsigned F = static_cast<unsigned>(FuncBase.size()) - 1;
  while (FuncBase[F] > Node)
    --F;
  return {F, Node - FuncBase[F]};
}
