//===- sched/BlockDFG.cpp - Per-region data-flow graph ----------------------===//

#include "sched/BlockDFG.h"

#include "analysis/DefUse.h"
#include "analysis/OpIndex.h"
#include "ir/Program.h"

#include <algorithm>
#include <cassert>

using namespace gdp;

/// True if two memory operations must stay ordered: at least one writes
/// and their may-access sets intersect. Malloc never conflicts (it touches
/// only fresh storage); calls are handled as barriers separately.
static bool memConflict(const Operation &A, const Operation &B) {
  bool AWrites = A.getOpcode() == Opcode::Store;
  bool BWrites = B.getOpcode() == Opcode::Store;
  if (!AWrites && !BWrites)
    return false;
  const auto &SA = A.getAccessSet();
  const auto &SB = B.getAccessSet();
  // Both sorted: linear intersection test.
  auto IA = SA.begin();
  auto IB = SB.begin();
  while (IA != SA.end() && IB != SB.end()) {
    if (*IA == *IB)
      return true;
    if (*IA < *IB)
      ++IA;
    else
      ++IB;
  }
  return false;
}

void BlockDFG::addEdge(unsigned From, unsigned To, EdgeKind Kind) {
  assert(From < size() && To < size() && "edge endpoint out of range");
  if (From == To)
    return;
  // Dedup exact duplicates (common for multi-operand reuse of one value).
  for (unsigned E : Succs[From])
    if (Edges[E].To == To && Edges[E].Kind == Kind)
      return;
  unsigned Idx = static_cast<unsigned>(Edges.size());
  Edges.push_back({From, To, Kind});
  Succs[From].push_back(Idx);
  Preds[To].push_back(Idx);
}

BlockDFG::BlockDFG(const BasicBlock &BB, const DefUse &DU, const OpIndex &OI,
                   const LoopInfo *LI) {
  unsigned N = BB.size();
  Ops.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Ops.push_back(&BB.getOp(I));
  Succs.resize(N);
  Preds.resize(N);

  // --- Data edges and live-ins from def-use chains.
  for (unsigned U = 0; U != N; ++U) {
    const Operation &Use = *Ops[U];
    unsigned UseId = static_cast<unsigned>(Use.getId());
    for (unsigned S = 0, E = Use.getNumSrcs(); S != E; ++S) {
      for (unsigned DefIdx : DU.defsForUse(UseId, S)) {
        const DefUse::DefSite &Def = DU.getDef(DefIdx);
        if (Def.isParam()) {
          bool Hoist = LI && LI->isHoistableLiveIn(-1, static_cast<unsigned>(
                                                           BB.getId()));
          LiveInList.push_back({U, -1, Hoist});
          continue;
        }
        unsigned DefId = static_cast<unsigned>(Def.OpId);
        int DefBlock = OI.getBlockOf(DefId);
        // A same-block def reaches this use only if it precedes it; a def
        // later in the block reaches uses here only around the loop —
        // that's a cross-iteration value, treated as a live-in. A block's
        // local indices are its positions.
        unsigned Local = static_cast<unsigned>(OI.getPosInBlock(DefId));
        if (DefBlock == BB.getId() && Local < U) {
          addEdge(Local, U, EdgeKind::Data);
        } else {
          bool Hoist =
              LI && LI->isHoistableLiveIn(DefBlock,
                                          static_cast<unsigned>(BB.getId()));
          LiveInList.push_back({U, Def.OpId, Hoist});
        }
      }
    }
  }
  // Dedup live-ins (same consumer, same producer).
  std::sort(LiveInList.begin(), LiveInList.end(),
            [](const LiveIn &A, const LiveIn &B) {
              return std::tie(A.LocalUser, A.DefOpId) <
                     std::tie(B.LocalUser, B.DefOpId);
            });
  LiveInList.erase(std::unique(LiveInList.begin(), LiveInList.end(),
                               [](const LiveIn &A, const LiveIn &B) {
                                 return A.LocalUser == B.LocalUser &&
                                        A.DefOpId == B.DefOpId;
                               }),
                   LiveInList.end());

  // --- Memory ordering edges. Each load/store gets an edge from the most
  // recent conflicting access; calls are full barriers.
  std::vector<unsigned> PendingMemOps; // since the last barrier
  int LastBarrier = -1;
  for (unsigned I = 0; I != N; ++I) {
    const Operation &Op = *Ops[I];
    if (Op.getOpcode() == Opcode::Call) {
      for (unsigned M : PendingMemOps)
        addEdge(M, I, EdgeKind::Mem);
      if (LastBarrier >= 0)
        addEdge(static_cast<unsigned>(LastBarrier), I, EdgeKind::Mem);
      PendingMemOps.clear();
      LastBarrier = static_cast<int>(I);
      continue;
    }
    if (!Op.isMemoryAccess())
      continue;
    if (LastBarrier >= 0)
      addEdge(static_cast<unsigned>(LastBarrier), I, EdgeKind::Mem);
    // Scan backwards adding edges from conflicting accesses; a conflicting
    // store closes the chain (everything before it is ordered through it).
    for (size_t J = PendingMemOps.size(); J-- > 0;) {
      unsigned M = PendingMemOps[J];
      if (memConflict(*Ops[M], Op)) {
        addEdge(M, I, EdgeKind::Mem);
        if (Ops[M]->getOpcode() == Opcode::Store)
          break;
      }
    }
    PendingMemOps.push_back(I);
  }

  // --- Issue-order edges into the terminator.
  if (N != 0 && Ops[N - 1]->isTerminator())
    for (unsigned I = 0; I + 1 < N; ++I)
      addEdge(I, N - 1, EdgeKind::Order);
}

FunctionAnalyses::FunctionAnalyses(const Function &F)
    : Cfg(F), Loops(F, Cfg) {
  OpIndex OI(F);
  DefUse DU(F);
  DFGs.reserve(F.getNumBlocks());
  for (unsigned B = 0; B != F.getNumBlocks(); ++B)
    DFGs.emplace_back(F.getBlock(B), DU, OI, &Loops);

  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations()) {
      unsigned UseId = static_cast<unsigned>(Op->getId());
      for (unsigned S = 0, E = Op->getNumSrcs(); S != E; ++S)
        for (unsigned DefIdx : DU.defsForUse(UseId, S)) {
          const DefUse::DefSite &Def = DU.getDef(DefIdx);
          if (!Def.isParam())
            Flows.push_back({static_cast<unsigned>(Def.OpId), UseId});
        }
    }
  Flows.shrink_to_fit(); // Bundles stay resident in the warm cache.
  ParamUses.resize(F.getNumParams());
  for (unsigned Param = 0; Param != F.getNumParams(); ++Param)
    for (const DefUse::UseSite &Use : DU.usesOfParam(Param))
      ParamUses[Param].push_back(static_cast<unsigned>(Use.OpId));
}

ProgramAnalyses::ProgramAnalyses(const Program &P) : P(&P) {
  Funcs.reserve(P.getNumFunctions());
  for (unsigned F = 0; F != P.getNumFunctions(); ++F)
    Funcs.emplace_back(P.getFunction(F));
}
