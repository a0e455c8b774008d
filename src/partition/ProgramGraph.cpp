//===- partition/ProgramGraph.cpp - Program-level data-flow graph -----------===//

#include "partition/ProgramGraph.h"

#include "ir/Program.h"
#include "profile/ProfileData.h"
#include "sched/BlockDFG.h"

#include <cassert>

using namespace gdp;

ProgramGraph::ProgramGraph(const ProgramAnalyses &PA,
                           const ProfileData &Prof) {
  const Program &P = PA.program();
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

  // --- Register-flow edges from the def-use pairs, weighted by the use
  // block's execution frequency (at least 1 so cold code still coheres).
  for (unsigned F = 0; F != P.getNumFunctions(); ++F)
    for (const FunctionAnalyses::Flow &Fl : PA.function(F).flows()) {
      unsigned Use = nodeOf(F, Fl.UseOpId);
      Edges.push_back(
          {nodeOf(F, Fl.DefOpId), Use, std::max<uint64_t>(1, Freq[Use])});
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
        uint64_t W = std::max<uint64_t>(1, Freq[CallNode]);
        unsigned CalleeId = static_cast<unsigned>(Op->getCallee());
        const Function &Callee = P.getFunction(CalleeId);
        for (unsigned Param = 0; Param != Callee.getNumParams(); ++Param)
          for (unsigned Use : PA.function(CalleeId).paramUses(Param))
            Edges.push_back({CallNode, nodeOf(CalleeId, Use), W});
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
